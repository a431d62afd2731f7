// Package enclave provides a software-simulated Intel SGX trusted execution
// environment. It reproduces the properties LibSEAL relies on — isolated
// enclave state reachable only through a registered ecall interface, costed
// enclave transitions, EPC paging penalties, sealing, attestation and
// monotonic counters — charging real CPU time according to a calibrated cost
// model so that benchmarks measure genuine behaviour.
package enclave

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"

	"libseal/internal/telemetry"
)

// Process-wide telemetry for the enclave interface: transition counts feed
// the §6.8 contention analysis, paging feeds the §2.5 EPC-pressure story.
var (
	mTransitions = telemetry.NewCounter("enclave.transitions", "crossings")
	mEcalls      = telemetry.NewCounter("enclave.ecalls", "calls")
	mOcalls      = telemetry.NewCounter("enclave.ocalls", "calls")
	mAsyncEcalls = telemetry.NewCounter("enclave.async_ecalls", "calls")
	mAsyncOcalls = telemetry.NewCounter("enclave.async_ocalls", "calls")
	mPagedBytes  = telemetry.NewCounter("enclave.paged_bytes", "bytes")
	// Occupancy: threads inside an enclave call (what the contention term is
	// charged on) and TCS slots taken. A connection idle on its socket holds
	// neither; resident scheduler threads hold one of each for their lifetime.
	mCallers = telemetry.NewGauge("enclave.callers", "threads")
	mTCSBusy = telemetry.NewGauge("enclave.tcs_busy", "slots")
)

// Measurement identifies the code and configuration loaded into an enclave
// (SGX MRENCLAVE).
type Measurement [32]byte

// SignerID identifies the authority that signed an enclave (SGX MRSIGNER).
type SignerID [32]byte

// Errors returned by enclave operations.
var (
	ErrNoThreads       = errors.New("enclave: all TCS slots busy")
	ErrNotInside       = errors.New("enclave: operation requires enclave context")
	ErrAlreadyInside   = errors.New("enclave: nested ecall not permitted")
	ErrDestroyed       = errors.New("enclave: enclave destroyed")
	ErrUnknownCounter  = errors.New("enclave: unknown monotonic counter")
	ErrSealCorrupted   = errors.New("enclave: sealed blob corrupted or wrong key")
	ErrQuoteInvalid    = errors.New("enclave: quote signature invalid")
	ErrInterfaceCheck  = errors.New("enclave: interface check failed")
	ErrExceedsMemLimit = errors.New("enclave: allocation exceeds enclave memory limit")
)

// Platform models one SGX-capable machine: the CPU fuse key from which
// sealing keys derive, the quoting infrastructure, and hardware monotonic
// counters that survive enclave restarts.
type Platform struct {
	mu      sync.Mutex
	fuseKey [32]byte
	// quotingKey is the per-platform attestation key, certified by the
	// (simulated) Intel attestation service.
	quotingKey *ecdsa.PrivateKey

	counters    map[uint64]*hardwareCounter
	nextCounter uint64
}

// NewPlatform creates a fresh simulated SGX machine with its own fuse key and
// provisioned attestation key.
func NewPlatform() *Platform {
	p := &Platform{counters: make(map[uint64]*hardwareCounter)}
	if _, err := rand.Read(p.fuseKey[:]); err != nil {
		panic("enclave: platform entropy unavailable: " + err.Error())
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		panic("enclave: quoting key generation failed: " + err.Error())
	}
	p.quotingKey = key
	return p
}

// Config describes an enclave to launch.
type Config struct {
	// Code is the enclave's identity input; its SHA-256 becomes the
	// measurement.
	Code []byte
	// Signer identifies the signing authority (MRSIGNER). Sealing with
	// PolicySigner binds to it.
	Signer SignerID
	// MaxThreads is the number of TCS slots, i.e. the maximum number of
	// threads that may be inside the enclave simultaneously. SGX enclaves
	// cannot grow this dynamically (§4.3 footnote).
	MaxThreads int
	// MemLimit caps total enclave heap. Zero means unlimited (paging costs
	// still apply past the EPC size).
	MemLimit int64
	// Cost is the performance model. The zero value charges nothing.
	Cost CostModel
}

// Enclave is a launched enclave instance.
type Enclave struct {
	platform *Platform
	meas     Measurement
	signer   SignerID
	cost     CostModel
	memLimit int64

	tcs chan struct{} // TCS slot tokens

	destroyed atomic.Bool

	// callers counts threads currently executing an enclave call (including
	// resident scheduler threads), feeding the contention term of the cost
	// model: on SGX, transition cost grows with the number of threads using
	// the enclave (§6.8: 8,500 cycles alone vs 170,000 with 48 threads).
	callers    atomic.Int64
	maxCallers atomic.Int64

	heapBytes atomic.Int64

	stats Stats

	// reportKey authenticates local reports and signs audit-log entries; it
	// is generated inside the enclave at launch and never leaves it.
	reportKey *ecdsa.PrivateKey
}

// Stats counts enclave interface activity. All fields are updated atomically
// and may be read concurrently via snapshot.
type Stats struct {
	Ecalls      atomic.Int64
	Ocalls      atomic.Int64
	AsyncEcalls atomic.Int64
	AsyncOcalls atomic.Int64
	PagedBytes  atomic.Int64
	Seals       atomic.Int64
	Unseals     atomic.Int64
}

// StatsSnapshot is a plain copy of the counters at one instant.
type StatsSnapshot struct {
	Ecalls      int64
	Ocalls      int64
	AsyncEcalls int64
	AsyncOcalls int64
	PagedBytes  int64
	Seals       int64
	Unseals     int64
}

// Launch creates and initialises an enclave on the platform, measuring the
// supplied code identity.
func (p *Platform) Launch(cfg Config) (*Enclave, error) {
	if cfg.MaxThreads <= 0 {
		cfg.MaxThreads = 4
	}
	// The signing (report) key derives deterministically from the platform
	// fuse key and the enclave measurement, like an EGETKEY-derived key:
	// relaunching the same enclave code on the same platform recovers the
	// same key, which is what lets audit-log signatures verify across
	// restarts (§5.1: the pair is "created during enclave provisioning").
	meas := sha256.Sum256(cfg.Code)
	key, err := deriveSigningKey(p.fuseKey, meas)
	if err != nil {
		return nil, fmt.Errorf("enclave: report key derivation: %w", err)
	}
	e := &Enclave{
		platform:  p,
		meas:      meas,
		signer:    cfg.Signer,
		cost:      cfg.Cost,
		memLimit:  cfg.MemLimit,
		tcs:       make(chan struct{}, cfg.MaxThreads),
		reportKey: key,
	}
	for i := 0; i < cfg.MaxThreads; i++ {
		e.tcs <- struct{}{}
	}
	return e, nil
}

// Measurement returns the enclave's MRENCLAVE value.
func (e *Enclave) Measurement() Measurement { return e.meas }

// Signer returns the enclave's MRSIGNER value.
func (e *Enclave) Signer() SignerID { return e.signer }

// Cost returns the active cost model.
func (e *Enclave) Cost() CostModel { return e.cost }

// Destroy tears the enclave down; subsequent ecalls fail.
func (e *Enclave) Destroy() { e.destroyed.Store(true) }

// Ctx is the capability to act inside the enclave. It is handed to ecall
// bodies and must not be retained past the call (mirroring the rule that
// enclave execution ends when the ecall returns).
type Ctx struct {
	e     *Enclave
	valid bool
}

// Enclave returns the enclave this context executes in.
func (c *Ctx) Enclave() *Enclave {
	c.check()
	return c.e
}

func (c *Ctx) check() {
	if c == nil || !c.valid {
		panic(ErrNotInside)
	}
}

// chargeTransition pays for one boundary crossing at current contention.
func (e *Enclave) chargeTransition() {
	mTransitions.Inc()
	n := e.callers.Load()
	for {
		m := e.maxCallers.Load()
		if n <= m || e.maxCallers.CompareAndSwap(m, n) {
			break
		}
	}
	burn(e.cost.TransitionCost(int(n)))
}

// MaxCallers reports the highest concurrent-caller count observed, a
// diagnostic for the contention model.
func (e *Enclave) MaxCallers() int64 { return e.maxCallers.Load() }

// addCallers moves the count of threads executing an enclave call.
func (e *Enclave) addCallers(d int64) {
	e.callers.Add(d)
	mCallers.Add(d)
}

// releaseTCS returns a slot taken from e.tcs.
func (e *Enclave) releaseTCS() {
	mTCSBusy.Add(-1)
	e.tcs <- struct{}{}
}

// Ecall enters the enclave and runs fn inside it. It blocks while all TCS
// slots are busy, pays the transition cost in both directions, and returns
// fn's error. This is the synchronous path; the asyncall package layers the
// paper's asynchronous mechanism on top of TryEcall/ecallLocked.
func (e *Enclave) Ecall(fn func(*Ctx) error) error {
	if e.destroyed.Load() {
		return ErrDestroyed
	}
	e.addCallers(1)
	defer e.addCallers(-1)
	<-e.tcs
	mTCSBusy.Add(1)
	defer e.releaseTCS()
	return e.ecallLocked(fn)
}

// TryEcall is like Ecall but fails immediately with ErrNoThreads when no TCS
// slot is free.
func (e *Enclave) TryEcall(fn func(*Ctx) error) error {
	if e.destroyed.Load() {
		return ErrDestroyed
	}
	select {
	case <-e.tcs:
	default:
		return ErrNoThreads
	}
	mTCSBusy.Add(1)
	e.addCallers(1)
	defer e.addCallers(-1)
	defer e.releaseTCS()
	return e.ecallLocked(fn)
}

// ecallLocked runs fn holding a TCS slot, charging both crossings.
func (e *Enclave) ecallLocked(fn func(*Ctx) error) error {
	e.stats.Ecalls.Add(1)
	mEcalls.Inc()
	e.chargeTransition()
	ctx := Ctx{e: e, valid: true}
	err := fn(&ctx)
	ctx.valid = false
	e.chargeTransition()
	return err
}

// EnterResident permanently binds the calling goroutine to a TCS slot and
// runs fn inside the enclave until it returns. It pays the transition cost
// only once on entry and once on exit: this is the "threads permanently
// associated with the enclave" mode of §3 (R4) used by the async-call
// scheduler threads. fn may run for the lifetime of the enclave.
func (e *Enclave) EnterResident(fn func(*Ctx)) error {
	if e.destroyed.Load() {
		return ErrDestroyed
	}
	<-e.tcs
	mTCSBusy.Add(1)
	defer e.releaseTCS()
	e.addCallers(1)
	defer e.addCallers(-1)
	e.stats.Ecalls.Add(1)
	mEcalls.Inc()
	e.chargeTransition()
	ctx := Ctx{e: e, valid: true}
	fn(&ctx)
	ctx.valid = false
	e.chargeTransition()
	return nil
}

// Ocall leaves the enclave to run fn in untrusted code and re-enters when fn
// returns, paying both crossings. The enclave context is unusable while
// outside.
func (c *Ctx) Ocall(fn func() error) error {
	c.check()
	e := c.e
	e.stats.Ocalls.Add(1)
	mOcalls.Inc()
	c.valid = false
	e.chargeTransition()
	err := fn()
	e.chargeTransition()
	c.valid = true
	return err
}

// NoteAsyncEcall records one ecall served through the asynchronous slot
// mechanism and charges the slot handoff cost (paid by the caller outside).
func (e *Enclave) NoteAsyncEcall() {
	e.stats.AsyncEcalls.Add(1)
	mAsyncEcalls.Inc()
	burn(e.cost.AsyncCallCost())
}

// NoteAsyncOcall records one ocall served through the asynchronous slot
// mechanism (the lthread task parks and an application thread runs the
// function outside; no hardware transition happens) and charges the slot
// handoff cost.
func (e *Enclave) NoteAsyncOcall() {
	e.stats.AsyncOcalls.Add(1)
	mAsyncOcalls.Inc()
	burn(e.cost.AsyncCallCost())
}

// Alloc accounts for size bytes of enclave heap. Once the enclave working
// set exceeds the EPC, the paging penalty for the overflow is charged.
func (c *Ctx) Alloc(size int64) error {
	c.check()
	e := c.e
	total := e.heapBytes.Add(size)
	if e.memLimit > 0 && total > e.memLimit {
		e.heapBytes.Add(-size)
		return ErrExceedsMemLimit
	}
	if over := total - e.cost.EPCBytes; over > 0 && e.cost.EPCBytes > 0 {
		paged := min64(size, over)
		e.stats.PagedBytes.Add(paged)
		mPagedBytes.Add(paged)
		burn(e.cost.PagingCost(paged))
	}
	return nil
}

// Free releases previously allocated enclave heap.
func (c *Ctx) Free(size int64) {
	c.check()
	c.e.heapBytes.Add(-size)
}

// HeapBytes reports the current enclave heap usage.
func (e *Enclave) HeapBytes() int64 { return e.heapBytes.Load() }

// ChargeData pays the in-enclave processing surcharge for touching n bytes
// of protected memory (memory-encryption-engine cache penalty).
func (c *Ctx) ChargeData(n int) {
	c.check()
	burn(c.e.cost.DataCost(n))
}

// Stats returns a snapshot of interface counters.
func (e *Enclave) Stats() StatsSnapshot {
	return StatsSnapshot{
		Ecalls:      e.stats.Ecalls.Load(),
		Ocalls:      e.stats.Ocalls.Load(),
		AsyncEcalls: e.stats.AsyncEcalls.Load(),
		AsyncOcalls: e.stats.AsyncOcalls.Load(),
		PagedBytes:  e.stats.PagedBytes.Load(),
		Seals:       e.stats.Seals.Load(),
		Unseals:     e.stats.Unseals.Load(),
	}
}

// ResetStats zeroes the interface counters (used between benchmark phases).
func (e *Enclave) ResetStats() {
	e.stats.Ecalls.Store(0)
	e.stats.Ocalls.Store(0)
	e.stats.AsyncEcalls.Store(0)
	e.stats.AsyncOcalls.Store(0)
	e.stats.PagedBytes.Store(0)
	e.stats.Seals.Store(0)
	e.stats.Unseals.Store(0)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// kdfReader expands a seed into a deterministic byte stream (counter-mode
// SHA-256), used to derive per-enclave keys from platform secrets.
type kdfReader struct {
	seed    [32]byte
	counter uint64
	buf     []byte
}

func (r *kdfReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(r.buf) == 0 {
			h := sha256.New()
			h.Write(r.seed[:])
			var c [8]byte
			binary.BigEndian.PutUint64(c[:], r.counter)
			h.Write(c[:])
			r.counter++
			r.buf = h.Sum(nil)
		}
		k := copy(p[n:], r.buf)
		r.buf = r.buf[k:]
		n += k
	}
	return n, nil
}

// deriveSigningKey deterministically derives the enclave's ECDSA signing key
// from the platform fuse key and the enclave measurement. The private scalar
// is sampled from the key-derivation stream directly (ecdsa.GenerateKey
// deliberately randomises its input consumption, which would defeat
// determinism).
func deriveSigningKey(fuseKey [32]byte, meas Measurement) (*ecdsa.PrivateKey, error) {
	mac := hmac.New(sha256.New, fuseKey[:])
	mac.Write([]byte("report-key"))
	mac.Write(meas[:])
	var seed [32]byte
	copy(seed[:], mac.Sum(nil))
	curve := elliptic.P256()
	order := curve.Params().N
	r := &kdfReader{seed: seed}
	buf := make([]byte, 32)
	for {
		if _, err := r.Read(buf); err != nil {
			return nil, err
		}
		d := new(big.Int).SetBytes(buf)
		if d.Sign() <= 0 || d.Cmp(order) >= 0 {
			continue // rejection-sample into [1, N)
		}
		priv := &ecdsa.PrivateKey{D: d}
		priv.PublicKey.Curve = curve
		priv.PublicKey.X, priv.PublicKey.Y = curve.ScalarBaseMult(d.Bytes())
		return priv, nil
	}
}
