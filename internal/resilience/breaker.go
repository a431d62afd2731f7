// Package resilience is LibSEAL's availability layer: the pieces that keep
// the audited service degrading predictably — instead of stalling or
// failing open — when a dependency misbehaves. It provides a circuit
// breaker for the rollback-counter quorum client (a dead quorum must not
// burn the full retry/backoff budget on every append batch), a
// breaker-wrapped protector that slots into the audit log's anchor path,
// and a health registry surfacing liveness and readiness over HTTP so
// orchestration (load balancers, kubelets, operators) can route around a
// degraded instance.
//
// The design follows ReplicaTEE's observation that enclave replica groups
// need explicit membership transitions to survive restarts, and the classic
// circuit-breaker state machine: Closed (calls flow; consecutive failures
// are counted), Open (calls fail fast until a cooldown elapses) and
// HalfOpen (one probe is admitted; its outcome decides between Closed and
// another Open period).
package resilience

import (
	"errors"
	"sync"
	"time"

	"libseal/internal/telemetry"
)

// ErrOpen is returned by Breaker.Allow while the breaker is open: the
// protected dependency has failed repeatedly and calls are shed without
// being attempted.
var ErrOpen = errors.New("resilience: circuit breaker open")

// State is a circuit breaker's position.
type State int32

// Breaker states.
const (
	// Closed lets calls flow; consecutive failures are counted.
	Closed State = iota
	// HalfOpen admits a single probe after the cooldown; its outcome
	// closes or re-opens the breaker.
	HalfOpen
	// Open fails every call fast until the cooldown elapses.
	Open
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case HalfOpen:
		return "half-open"
	case Open:
		return "open"
	}
	return "?"
}

// BreakerConfig tunes a circuit breaker.
type BreakerConfig struct {
	// Threshold is the number of consecutive failures that opens the
	// breaker. Zero picks the default of 5.
	Threshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe. Zero picks the default of 5s.
	Cooldown time.Duration
	// OnStateChange, when set, is called (outside the breaker's lock) on
	// every state transition. Used by the server to log transitions.
	OnStateChange func(from, to State)
	// Now overrides the clock used for the open-cooldown timer. Nil uses
	// time.Now. Tests inject a fake clock so cooldown expiry is exact
	// instead of raced against real sleeps.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a circuit breaker: it watches the outcome of calls against one
// dependency and, after Threshold consecutive failures, fails subsequent
// calls fast for Cooldown before probing for recovery. All methods are safe
// for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu          sync.Mutex
	state       State
	consecutive int       // consecutive failures while closed
	openedAt    time.Time // when the breaker last opened
	probing     bool      // a half-open probe is in flight

	mState         *telemetry.Gauge
	mOpens         *telemetry.Counter
	mProbes        *telemetry.Counter
	mShortCircuits *telemetry.Counter
}

// NewBreaker creates a breaker whose telemetry registers under the given
// name prefix (<name>.state, <name>.opens, <name>.probes,
// <name>.short_circuits).
func NewBreaker(name string, cfg BreakerConfig) *Breaker {
	return &Breaker{
		cfg:            cfg.withDefaults(),
		mState:         telemetry.NewGauge(name+".state", "state"),
		mOpens:         telemetry.NewCounter(name+".opens", "transitions"),
		mProbes:        telemetry.NewCounter(name+".probes", "calls"),
		mShortCircuits: telemetry.NewCounter(name+".short_circuits", "calls"),
	}
}

// State returns the breaker's current position. An elapsed cooldown is
// reflected as HalfOpen even before the next Allow, so health probes see
// the same state a caller would.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		return HalfOpen
	}
	return b.state
}

// Allow reports whether a call may proceed. It returns nil while the
// breaker is closed, admits exactly one probe once the open cooldown has
// elapsed, and returns ErrOpen otherwise. A caller that proceeds must
// report the outcome via Success or Failure.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	var notify func(State, State)
	defer func() {
		b.mu.Unlock()
		if notify != nil {
			notify(Open, HalfOpen)
		}
	}()
	switch b.state {
	case Closed:
		return nil
	case Open:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			b.mShortCircuits.Inc()
			return ErrOpen
		}
		b.setStateLocked(HalfOpen)
		if b.cfg.OnStateChange != nil {
			notify = b.cfg.OnStateChange
		}
		fallthrough
	case HalfOpen:
		if b.probing {
			b.mShortCircuits.Inc()
			return ErrOpen
		}
		b.probing = true
		b.mProbes.Inc()
		return nil
	}
	return nil
}

// Success records a successful call: the failure streak resets and an open
// or half-open breaker closes.
func (b *Breaker) Success() {
	b.mu.Lock()
	from := b.state
	b.consecutive = 0
	b.probing = false
	if b.state != Closed {
		b.setStateLocked(Closed)
	}
	b.mu.Unlock()
	if from != Closed && b.cfg.OnStateChange != nil {
		b.cfg.OnStateChange(from, Closed)
	}
}

// Failure records a failed call. A half-open probe failure re-opens the
// breaker immediately; while closed, the Threshold-th consecutive failure
// opens it.
func (b *Breaker) Failure() {
	b.mu.Lock()
	from := b.state
	tripped := false
	switch b.state {
	case HalfOpen:
		b.probing = false
		b.trip()
		tripped = true
	case Closed:
		b.consecutive++
		if b.consecutive >= b.cfg.Threshold {
			b.trip()
			tripped = true
		}
	case Open:
		// A straggler from before the trip; the breaker is already open.
	}
	b.mu.Unlock()
	if tripped && b.cfg.OnStateChange != nil {
		b.cfg.OnStateChange(from, Open)
	}
}

// trip opens the breaker. Called with b.mu held.
func (b *Breaker) trip() {
	b.setStateLocked(Open)
	b.openedAt = b.cfg.Now()
	b.consecutive = 0
	b.mOpens.Inc()
}

// setStateLocked records a state transition. Called with b.mu held.
func (b *Breaker) setStateLocked(s State) {
	b.state = s
	b.mState.Set(int64(s))
}
