package enclave

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func testEnclave(t *testing.T) *Enclave {
	t.Helper()
	p := NewPlatform()
	e, err := p.Launch(Config{Code: []byte("test-enclave"), MaxThreads: 4, Cost: ZeroCostModel()})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	return e
}

func TestEcallRunsInside(t *testing.T) {
	e := testEnclave(t)
	ran := false
	err := e.Ecall(func(c *Ctx) error {
		ran = true
		if c.Enclave() != e {
			t.Error("ctx bound to wrong enclave")
		}
		return nil
	})
	if err != nil || !ran {
		t.Fatalf("Ecall err=%v ran=%v", err, ran)
	}
	if got := e.Stats().Ecalls; got != 1 {
		t.Fatalf("Ecalls = %d, want 1", got)
	}
}

func TestEcallPropagatesError(t *testing.T) {
	e := testEnclave(t)
	want := errors.New("boom")
	if err := e.Ecall(func(*Ctx) error { return want }); !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

func TestCtxInvalidOutsideCall(t *testing.T) {
	e := testEnclave(t)
	var leaked *Ctx
	_ = e.Ecall(func(c *Ctx) error { leaked = c; return nil })
	defer func() {
		if recover() == nil {
			t.Fatal("using a leaked Ctx after the ecall returned did not panic")
		}
	}()
	leaked.ChargeData(1)
}

func TestCtxInvalidDuringOcall(t *testing.T) {
	e := testEnclave(t)
	err := e.Ecall(func(c *Ctx) error {
		return c.Ocall(func() error {
			defer func() {
				if recover() == nil {
					t.Error("Ctx usable while outside during ocall")
				}
			}()
			c.ChargeData(1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOcallCountsAndRestoresCtx(t *testing.T) {
	e := testEnclave(t)
	err := e.Ecall(func(c *Ctx) error {
		if err := c.Ocall(func() error { return nil }); err != nil {
			return err
		}
		c.ChargeData(1) // must be valid again
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Ocalls; got != 1 {
		t.Fatalf("Ocalls = %d, want 1", got)
	}
}

func TestTCSLimit(t *testing.T) {
	p := NewPlatform()
	e, err := p.Launch(Config{Code: []byte("x"), MaxThreads: 1, Cost: ZeroCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	inside := make(chan struct{})
	release := make(chan struct{})
	go e.Ecall(func(*Ctx) error {
		close(inside)
		<-release
		return nil
	})
	<-inside
	if err := e.TryEcall(func(*Ctx) error { return nil }); !errors.Is(err, ErrNoThreads) {
		t.Fatalf("TryEcall = %v, want ErrNoThreads", err)
	}
	close(release)
}

func TestEcallAfterDestroy(t *testing.T) {
	e := testEnclave(t)
	e.Destroy()
	if err := e.Ecall(func(*Ctx) error { return nil }); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("err = %v, want ErrDestroyed", err)
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	e := testEnclave(t)
	msg := []byte("audit log chunk")
	aad := []byte("entry 7")
	var blob []byte
	if err := e.Ecall(func(c *Ctx) error {
		var err error
		blob, err = c.Seal(PolicySigner, msg, aad)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, msg) {
		t.Fatal("sealed blob contains plaintext")
	}
	if err := e.Ecall(func(c *Ctx) error {
		got, err := c.Unseal(blob, aad)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("unsealed %q, want %q", got, msg)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSealTamperDetected(t *testing.T) {
	e := testEnclave(t)
	var blob []byte
	_ = e.Ecall(func(c *Ctx) error {
		var err error
		blob, err = c.Seal(PolicyMeasurement, []byte("secret"), nil)
		return err
	})
	blob[len(blob)-1] ^= 0xff
	err := e.Ecall(func(c *Ctx) error {
		_, err := c.Unseal(blob, nil)
		return err
	})
	if !errors.Is(err, ErrSealCorrupted) {
		t.Fatalf("err = %v, want ErrSealCorrupted", err)
	}
}

func TestSealWrongAADDetected(t *testing.T) {
	e := testEnclave(t)
	var blob []byte
	_ = e.Ecall(func(c *Ctx) error {
		var err error
		blob, err = c.Seal(PolicyMeasurement, []byte("secret"), []byte("aad1"))
		return err
	})
	err := e.Ecall(func(c *Ctx) error {
		_, err := c.Unseal(blob, []byte("aad2"))
		return err
	})
	if !errors.Is(err, ErrSealCorrupted) {
		t.Fatalf("err = %v, want ErrSealCorrupted", err)
	}
}

func TestSealPolicyMeasurementIsolation(t *testing.T) {
	p := NewPlatform()
	e1, _ := p.Launch(Config{Code: []byte("enclave-A"), Cost: ZeroCostModel()})
	e2, _ := p.Launch(Config{Code: []byte("enclave-B"), Cost: ZeroCostModel()})
	var blob []byte
	_ = e1.Ecall(func(c *Ctx) error {
		var err error
		blob, err = c.Seal(PolicyMeasurement, []byte("secret"), nil)
		return err
	})
	err := e2.Ecall(func(c *Ctx) error {
		_, err := c.Unseal(blob, nil)
		return err
	})
	if !errors.Is(err, ErrSealCorrupted) {
		t.Fatalf("different-measurement unseal err = %v, want ErrSealCorrupted", err)
	}
}

func TestSealPolicySignerSharing(t *testing.T) {
	p := NewPlatform()
	var signer SignerID
	copy(signer[:], "provider-authority")
	e1, _ := p.Launch(Config{Code: []byte("v1"), Signer: signer, Cost: ZeroCostModel()})
	e2, _ := p.Launch(Config{Code: []byte("v2"), Signer: signer, Cost: ZeroCostModel()})
	var blob []byte
	_ = e1.Ecall(func(c *Ctx) error {
		var err error
		blob, err = c.Seal(PolicySigner, []byte("log"), nil)
		return err
	})
	if err := e2.Ecall(func(c *Ctx) error {
		got, err := c.Unseal(blob, nil)
		if err != nil {
			return err
		}
		if string(got) != "log" {
			t.Errorf("got %q", got)
		}
		return nil
	}); err != nil {
		t.Fatalf("same-signer unseal failed: %v", err)
	}
}

func TestSealCrossPlatformRejected(t *testing.T) {
	var signer SignerID
	e1, _ := NewPlatform().Launch(Config{Code: []byte("x"), Signer: signer, Cost: ZeroCostModel()})
	e2, _ := NewPlatform().Launch(Config{Code: []byte("x"), Signer: signer, Cost: ZeroCostModel()})
	var blob []byte
	_ = e1.Ecall(func(c *Ctx) error {
		var err error
		blob, err = c.Seal(PolicySigner, []byte("secret"), nil)
		return err
	})
	err := e2.Ecall(func(c *Ctx) error {
		_, err := c.Unseal(blob, nil)
		return err
	})
	if !errors.Is(err, ErrSealCorrupted) {
		t.Fatalf("cross-platform unseal err = %v, want ErrSealCorrupted", err)
	}
}

func TestQuoteVerify(t *testing.T) {
	p := NewPlatform()
	e, _ := p.Launch(Config{Code: []byte("libseal"), Cost: ZeroCostModel()})
	svc := NewAttestationService(p)
	var q Quote
	if err := e.Ecall(func(c *Ctx) error {
		var err error
		q, err = c.Quote([]byte("tls-cert-hash"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Verify(q); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := svc.VerifyIdentity(q, e.Measurement()); err != nil {
		t.Fatalf("VerifyIdentity: %v", err)
	}
}

func TestQuoteForgedMeasurementRejected(t *testing.T) {
	p := NewPlatform()
	e, _ := p.Launch(Config{Code: []byte("libseal"), Cost: ZeroCostModel()})
	svc := NewAttestationService(p)
	var q Quote
	_ = e.Ecall(func(c *Ctx) error {
		var err error
		q, err = c.Quote(nil)
		return err
	})
	q.Measurement[0] ^= 1 // forge the identity
	if err := svc.Verify(q); !errors.Is(err, ErrQuoteInvalid) {
		t.Fatalf("forged quote Verify = %v, want ErrQuoteInvalid", err)
	}
}

func TestQuoteUntrustedPlatformRejected(t *testing.T) {
	good, evil := NewPlatform(), NewPlatform()
	e, _ := evil.Launch(Config{Code: []byte("libseal"), Cost: ZeroCostModel()})
	svc := NewAttestationService(good)
	var q Quote
	_ = e.Ecall(func(c *Ctx) error {
		var err error
		q, err = c.Quote(nil)
		return err
	})
	if err := svc.Verify(q); !errors.Is(err, ErrQuoteInvalid) {
		t.Fatalf("untrusted platform quote = %v, want ErrQuoteInvalid", err)
	}
}

func TestMonotonicCounter(t *testing.T) {
	e := testEnclave(t)
	var id uint64
	if err := e.Ecall(func(c *Ctx) error {
		var err error
		id, err = c.CreateCounter()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want <= 3; want++ {
		_ = e.Ecall(func(c *Ctx) error {
			got, err := c.IncrementCounter(id)
			if err != nil {
				return err
			}
			if got != want {
				t.Errorf("counter = %d, want %d", got, want)
			}
			return nil
		})
	}
	_ = e.Ecall(func(c *Ctx) error {
		got, err := c.ReadCounter(id)
		if err != nil || got != 3 {
			t.Errorf("ReadCounter = %d, %v; want 3", got, err)
		}
		return nil
	})
}

func TestCounterSurvivesEnclaveRestart(t *testing.T) {
	p := NewPlatform()
	e1, _ := p.Launch(Config{Code: []byte("same"), Cost: ZeroCostModel()})
	var id uint64
	_ = e1.Ecall(func(c *Ctx) error {
		id, _ = c.CreateCounter()
		_, err := c.IncrementCounter(id)
		return err
	})
	e1.Destroy()
	e2, _ := p.Launch(Config{Code: []byte("same"), Cost: ZeroCostModel()})
	_ = e2.Ecall(func(c *Ctx) error {
		got, err := c.ReadCounter(id)
		if err != nil || got != 1 {
			t.Errorf("restarted enclave counter = %d, %v; want 1", got, err)
		}
		return nil
	})
}

func TestCounterWrongOwnerRejected(t *testing.T) {
	p := NewPlatform()
	owner, _ := p.Launch(Config{Code: []byte("owner"), Cost: ZeroCostModel()})
	other, _ := p.Launch(Config{Code: []byte("other"), Cost: ZeroCostModel()})
	var id uint64
	_ = owner.Ecall(func(c *Ctx) error {
		id, _ = c.CreateCounter()
		return nil
	})
	err := other.Ecall(func(c *Ctx) error {
		_, err := c.IncrementCounter(id)
		return err
	})
	if !errors.Is(err, ErrUnknownCounter) {
		t.Fatalf("foreign increment = %v, want ErrUnknownCounter", err)
	}
}

func TestSignVerify(t *testing.T) {
	e := testEnclave(t)
	digest := bytes.Repeat([]byte{7}, 32)
	var sig Signature
	_ = e.Ecall(func(c *Ctx) error {
		var err error
		sig, err = c.Sign(digest)
		return err
	})
	if !VerifySignature(e.PublicKey(), digest, sig) {
		t.Fatal("valid signature rejected")
	}
	bad := append([]byte(nil), digest...)
	bad[0] ^= 1
	if VerifySignature(e.PublicKey(), bad, sig) {
		t.Fatal("signature verified for different digest")
	}
}

func TestAllocMemLimit(t *testing.T) {
	p := NewPlatform()
	e, _ := p.Launch(Config{Code: []byte("x"), MemLimit: 1024, Cost: ZeroCostModel()})
	err := e.Ecall(func(c *Ctx) error {
		if err := c.Alloc(512); err != nil {
			return err
		}
		if err := c.Alloc(1024); !errors.Is(err, ErrExceedsMemLimit) {
			t.Errorf("over-limit Alloc = %v, want ErrExceedsMemLimit", err)
		}
		c.Free(512)
		return c.Alloc(1024)
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = e.Ecall(func(c *Ctx) error { c.Free(1024); return nil })
	if got := e.HeapBytes(); got != 0 {
		t.Fatalf("HeapBytes = %d, want 0", got)
	}
}

func TestEPCPagingAccounted(t *testing.T) {
	p := NewPlatform()
	cost := ZeroCostModel()
	cost.EPCBytes = 4096
	e, _ := p.Launch(Config{Code: []byte("x"), Cost: cost})
	_ = e.Ecall(func(c *Ctx) error {
		_ = c.Alloc(4096) // fits
		_ = c.Alloc(8192) // 8192 over
		return nil
	})
	if got := e.Stats().PagedBytes; got != 8192 {
		t.Fatalf("PagedBytes = %d, want 8192", got)
	}
}

func TestTransitionCostCharged(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	p := NewPlatform()
	cost := ZeroCostModel()
	cost.TransitionCycles = 2_000_000 // ~540µs per crossing at 3.7GHz
	e, _ := p.Launch(Config{Code: []byte("x"), Cost: cost})
	start := time.Now()
	_ = e.Ecall(func(*Ctx) error { return nil })
	if elapsed := time.Since(start); elapsed < 800*time.Microsecond {
		t.Fatalf("two crossings took %v, expected >= ~1ms of charged cost", elapsed)
	}
}

func TestTransitionContentionScales(t *testing.T) {
	m := DefaultCostModel()
	c1 := m.TransitionCost(1)
	c48 := m.TransitionCost(48)
	ratio := float64(c48) / float64(c1)
	// Paper: 8,500 cycles at 1 thread vs 170,000 at 48 — about 20x.
	if ratio < 15 || ratio > 25 {
		t.Fatalf("contention ratio = %.1f, want ~20", ratio)
	}
}

func TestConcurrentEcalls(t *testing.T) {
	e := testEnclave(t)
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = e.Ecall(func(*Ctx) error {
				mu.Lock()
				total++
				mu.Unlock()
				return nil
			})
		}()
	}
	wg.Wait()
	if total != 32 {
		t.Fatalf("total = %d, want 32", total)
	}
	if got := e.Stats().Ecalls; got != 32 {
		t.Fatalf("Ecalls = %d, want 32", got)
	}
}

func TestSealRoundTripProperty(t *testing.T) {
	e := testEnclave(t)
	f := func(msg, aad []byte) bool {
		var ok bool
		err := e.Ecall(func(c *Ctx) error {
			blob, err := c.Seal(PolicySigner, msg, aad)
			if err != nil {
				return err
			}
			got, err := c.Unseal(blob, aad)
			if err != nil {
				return err
			}
			ok = bytes.Equal(got, msg)
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasurementDeterministic(t *testing.T) {
	p := NewPlatform()
	e1, _ := p.Launch(Config{Code: []byte("code"), Cost: ZeroCostModel()})
	e2, _ := p.Launch(Config{Code: []byte("code"), Cost: ZeroCostModel()})
	e3, _ := p.Launch(Config{Code: []byte("other"), Cost: ZeroCostModel()})
	if e1.Measurement() != e2.Measurement() {
		t.Fatal("same code produced different measurements")
	}
	if e1.Measurement() == e3.Measurement() {
		t.Fatal("different code produced same measurement")
	}
}

func TestEnterResident(t *testing.T) {
	e := testEnclave(t)
	done := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		_ = e.EnterResident(func(c *Ctx) {
			c.ChargeData(0)
			<-stop
		})
		close(done)
	}()
	close(stop)
	<-done
	if got := e.Stats().Ecalls; got != 1 {
		t.Fatalf("Ecalls = %d, want 1", got)
	}
}

func TestSigningKeyDeterministicPerPlatformAndCode(t *testing.T) {
	p := NewPlatform()
	e1, _ := p.Launch(Config{Code: []byte("same"), Cost: ZeroCostModel()})
	e2, _ := p.Launch(Config{Code: []byte("same"), Cost: ZeroCostModel()})
	e3, _ := p.Launch(Config{Code: []byte("other"), Cost: ZeroCostModel()})
	if e1.PublicKey().X.Cmp(e2.PublicKey().X) != 0 {
		t.Fatal("same platform+code produced different signing keys")
	}
	if e1.PublicKey().X.Cmp(e3.PublicKey().X) == 0 {
		t.Fatal("different code produced same signing key")
	}
	other := NewPlatform()
	e4, _ := other.Launch(Config{Code: []byte("same"), Cost: ZeroCostModel()})
	if e1.PublicKey().X.Cmp(e4.PublicKey().X) == 0 {
		t.Fatal("different platforms produced same signing key")
	}
}

// A hardware counter increment takes the model's NVRAM write time, and
// (below a millisecond) not a runtime timer's millisecond. The median bound
// gets three rounds, so a round a loaded machine slowed does not fail it; a
// timer fails all three.
func TestCounterLatencyCharged(t *testing.T) {
	const nvram = 400 * time.Microsecond
	cost := ZeroCostModel()
	cost.HardwareCounterLatency = nvram
	e, err := NewPlatform().Launch(Config{Code: []byte("nvram"), Cost: cost})
	if err != nil {
		t.Fatal(err)
	}
	var id uint64
	if err := e.Ecall(func(c *Ctx) (err error) {
		id, err = c.CreateCounter()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for round := 0; ; round++ {
		took := make([]time.Duration, 21)
		if err := e.Ecall(func(c *Ctx) error {
			for i := range took {
				start := time.Now()
				if _, err := c.IncrementCounter(id); err != nil {
					return err
				}
				took[i] = time.Since(start)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		slices.Sort(took)
		if took[0] < nvram {
			t.Fatalf("increment took %v, under the %v write", took[0], nvram)
		}
		med := took[len(took)/2]
		if med <= nvram+400*time.Microsecond {
			return
		}
		if round == 2 {
			t.Fatalf("median increment %v for a %v write", med, nvram)
		}
	}
}

func TestPlatformStateRoundTrip(t *testing.T) {
	p := NewPlatform()
	e, _ := p.Launch(Config{Code: []byte("persist"), Cost: ZeroCostModel()})
	var id uint64
	_ = e.Ecall(func(c *Ctx) error {
		id, _ = c.CreateCounter()
		_, err := c.IncrementCounter(id)
		return err
	})
	var sealed []byte
	_ = e.Ecall(func(c *Ctx) error {
		var err error
		sealed, err = c.Seal(PolicyMeasurement, []byte("survives"), nil)
		return err
	})

	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalPlatform(data)
	if err != nil {
		t.Fatal(err)
	}
	// Same sealing keys, same counters, same signing keys, same attestation.
	e2, _ := restored.Launch(Config{Code: []byte("persist"), Cost: ZeroCostModel()})
	if e.PublicKey().X.Cmp(e2.PublicKey().X) != 0 {
		t.Fatal("signing key lost across platform restore")
	}
	_ = e2.Ecall(func(c *Ctx) error {
		got, err := c.Unseal(sealed, nil)
		if err != nil || string(got) != "survives" {
			t.Errorf("unseal after restore: %q, %v", got, err)
		}
		v, err := c.ReadCounter(id)
		if err != nil || v != 1 {
			t.Errorf("counter after restore = %d, %v", v, err)
		}
		return nil
	})
	svc := NewAttestationService(restored)
	var q Quote
	_ = e.Ecall(func(c *Ctx) error {
		var err error
		q, err = c.Quote(nil)
		return err
	})
	if err := svc.Verify(q); err != nil {
		t.Fatalf("quote from original platform rejected by restored verifier: %v", err)
	}
}

func TestLoadOrCreatePlatform(t *testing.T) {
	path := t.TempDir() + "/platform.state"
	p1, err := LoadOrCreatePlatform(path)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := LoadOrCreatePlatform(path)
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := p1.Launch(Config{Code: []byte("x"), Cost: ZeroCostModel()})
	e2, _ := p2.Launch(Config{Code: []byte("x"), Cost: ZeroCostModel()})
	if e1.PublicKey().X.Cmp(e2.PublicKey().X) != 0 {
		t.Fatal("LoadOrCreatePlatform did not restore the same platform")
	}
	if _, err := UnmarshalPlatform([]byte("garbage")); err == nil {
		t.Fatal("garbage state accepted")
	}
}
