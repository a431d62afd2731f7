package enclave

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
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
		if c.e != e {
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

// TestTCSLimit: with every TCS slot taken, an Ecall waits for one to free up
// and then runs.
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
	second := make(chan struct{})
	go e.Ecall(func(*Ctx) error {
		close(second)
		return nil
	})
	select {
	case <-second:
		t.Fatal("a second Ecall entered a one-slot enclave while the slot was taken")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-second:
	case <-time.After(5 * time.Second):
		t.Fatal("the waiting Ecall never entered after the slot freed up")
	}
}

func TestEcallAfterDestroy(t *testing.T) {
	e := testEnclave(t)
	e.Destroy()
	if err := e.Ecall(func(*Ctx) error { return nil }); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("err = %v, want ErrDestroyed", err)
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

func TestPlatformStateRoundTrip(t *testing.T) {
	p := NewPlatform()
	e, _ := p.Launch(Config{Code: []byte("persist"), Cost: ZeroCostModel()})

	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalPlatform(data)
	if err != nil {
		t.Fatal(err)
	}
	// Same signing keys, same attestation.
	e2, _ := restored.Launch(Config{Code: []byte("persist"), Cost: ZeroCostModel()})
	if e.PublicKey().X.Cmp(e2.PublicKey().X) != 0 {
		t.Fatal("signing key lost across platform restore")
	}
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
	data, err := p1.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if _, err := UnmarshalPlatform(data); !errors.Is(err, ErrBadPlatformState) {
		t.Fatalf("corrupted state: %v, want ErrBadPlatformState", err)
	}
	// A format-2 file (it carried hardware-counter state) fails by name.
	old := append([]byte("LSEALPLATFORM2\n"), make([]byte, 80)...)
	if _, err := UnmarshalPlatform(old); err == nil || !strings.Contains(err.Error(), "format 2 is not supported") {
		t.Fatalf("format-2 state: %v, want it refused by name", err)
	}
}
