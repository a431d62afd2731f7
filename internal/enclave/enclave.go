// Package enclave provides a software-simulated Intel SGX trusted execution
// environment. It reproduces the properties LibSEAL relies on — isolated
// enclave state reachable only through a registered ecall interface, costed
// enclave transitions, sealing and attestation — charging real CPU time
// according to a calibrated cost model so that benchmarks measure genuine
// behaviour. It models neither the SGX hardware counter (ROTE is the
// rollback counter, §5.1) nor EPC paging.
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
	"sync/atomic"

	"libseal/internal/simtime"
	"libseal/internal/telemetry"
)

// Process-wide telemetry for the enclave interface: transition counts feed
// the §6.8 contention analysis.
var (
	mTransitions = telemetry.NewCounter("enclave.transitions", "crossings")
	mEcalls      = telemetry.NewCounter("enclave.ecalls", "calls")
	mOcalls      = telemetry.NewCounter("enclave.ocalls", "calls")
	mAsyncEcalls = telemetry.NewCounter("enclave.async_ecalls", "calls")
	mAsyncOcalls = telemetry.NewCounter("enclave.async_ocalls", "calls")
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
	ErrNotInside     = errors.New("enclave: operation requires enclave context")
	ErrDestroyed     = errors.New("enclave: enclave destroyed")
	ErrSealCorrupted = errors.New("enclave: sealed blob corrupted or wrong key")
	ErrQuoteInvalid  = errors.New("enclave: quote signature invalid")
)

// Platform models one SGX-capable machine: the CPU fuse key from which
// sealing keys derive, and the quoting infrastructure.
type Platform struct {
	fuseKey [32]byte
	// quotingKey is the per-platform attestation key, certified by the
	// (simulated) Intel attestation service.
	quotingKey *ecdsa.PrivateKey
}

// NewPlatform creates a fresh simulated SGX machine with its own fuse key and
// provisioned attestation key.
func NewPlatform() *Platform {
	p := &Platform{}
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
	// Cost is the performance model. The zero value charges nothing.
	Cost CostModel
}

// Enclave is a launched enclave instance.
type Enclave struct {
	platform *Platform
	meas     Measurement
	signer   SignerID
	cost     CostModel

	tcs chan struct{} // TCS slot tokens

	destroyed atomic.Bool

	// callers counts threads currently executing an enclave call (including
	// resident scheduler threads), feeding the contention term of the cost
	// model: on SGX, transition cost grows with the number of threads using
	// the enclave (§6.8: 8,500 cycles alone vs 170,000 with 48 threads).
	callers atomic.Int64

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
	Seals       atomic.Int64
	Unseals     atomic.Int64
}

// StatsSnapshot is a plain copy of the counters at one instant.
type StatsSnapshot struct {
	Ecalls      int64
	Ocalls      int64
	AsyncEcalls int64
	AsyncOcalls int64
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

// Destroy tears the enclave down; subsequent ecalls fail.
func (e *Enclave) Destroy() { e.destroyed.Store(true) }

// Ctx is the capability to act inside the enclave. It is handed to ecall
// bodies and must not be retained past the call (mirroring the rule that
// enclave execution ends when the ecall returns).
type Ctx struct {
	e     *Enclave
	valid bool
}

func (c *Ctx) check() {
	if c == nil || !c.valid {
		panic(ErrNotInside)
	}
}

// chargeTransition pays for one boundary crossing at current contention.
func (e *Enclave) chargeTransition() {
	mTransitions.Inc()
	simtime.Burn(e.cost.TransitionCost(int(e.callers.Load())))
}

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
// paper's asynchronous mechanism on top of it and EnterResident.
func (e *Enclave) Ecall(fn func(*Ctx) error) error {
	if e.destroyed.Load() {
		return ErrDestroyed
	}
	e.addCallers(1)
	defer e.addCallers(-1)
	<-e.tcs
	mTCSBusy.Add(1)
	defer e.releaseTCS()
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
	simtime.Burn(e.cost.AsyncCallCost())
}

// NoteAsyncOcall records one ocall served through the asynchronous slot
// mechanism (the lthread task parks and an application thread runs the
// function outside; no hardware transition happens) and charges the slot
// handoff cost.
func (e *Enclave) NoteAsyncOcall() {
	e.stats.AsyncOcalls.Add(1)
	mAsyncOcalls.Inc()
	simtime.Burn(e.cost.AsyncCallCost())
}

// ChargeData pays the in-enclave processing surcharge for touching n bytes
// of protected memory (memory-encryption-engine cache penalty).
func (c *Ctx) ChargeData(n int) {
	c.check()
	simtime.Burn(c.e.cost.DataCost(n))
}

// Random fills buf with cryptographically secure random bytes generated
// inside the enclave (RDRAND), avoiding an ocall to the host RNG — one of
// the transition-reduction optimisations of §4.2.
func (c *Ctx) Random(buf []byte) error {
	c.check()
	_, err := rand.Read(buf)
	return err
}

// Stats returns a snapshot of interface counters.
func (e *Enclave) Stats() StatsSnapshot {
	return StatsSnapshot{
		Ecalls:      e.stats.Ecalls.Load(),
		Ocalls:      e.stats.Ocalls.Load(),
		AsyncEcalls: e.stats.AsyncEcalls.Load(),
		AsyncOcalls: e.stats.AsyncOcalls.Load(),
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
	e.stats.Seals.Store(0)
	e.stats.Unseals.Store(0)
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
