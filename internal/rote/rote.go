// Package rote implements the distributed monotonic counter protocol that
// LibSEAL uses for rollback protection of its persisted audit log (§5.1).
// SGX hardware counters are too slow and wear out, so LibSEAL follows ROTE
// (Matetic et al., 2017): a group of n = 3f+1 counter nodes — other LibSEAL
// instances under the provider's control — stores counter state; an
// increment is durable once a quorum of 2f+1 nodes acknowledges it, and the
// counter survives as long as at most f nodes misbehave.
//
// The client side is hardened for production use: every operation takes a
// context, each attempt is bounded by a per-request timeout, failed quorums
// are retried with exponential backoff and deterministic jitter, and a slow
// node never adds its latency to the request path once 2f+1 valid replies
// are in. Quorum intersection keeps that safe: any 2f+1 authenticated
// replies overlap any earlier write quorum in at least f+1 honest nodes, so
// reads still observe the latest committed value.
//
// The nodes are in-process actors, so a round trip (roundTrip) runs in the
// caller's goroutine: one modelled wait for the network round trip, then
// every prompt node handles the request in turn, then — only while the call
// still lacks replies — each node whose fault hook delayed it, in delay
// order, after a wait of its own. The simtime.rote.* account therefore
// counts one wait per round trip plus one per delayed node served.
package rote

import (
	"cmp"
	"context"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	mathrand "math/rand"
	"slices"
	"sync"
	"time"

	"libseal/internal/simtime"
	"libseal/internal/telemetry"
)

// Counter-protocol telemetry: increment round-trip latency sits on the audit
// append path (every anchor is one increment), so its distribution and the
// retry/timeout counters explain append tail latency under node faults.
var (
	mIncrements       = telemetry.NewCounter("rote.increments", "calls")
	mReads            = telemetry.NewCounter("rote.reads", "calls")
	mIncrementLatency = telemetry.NewHistogram("rote.increment.latency", "ns")
	mReadLatency      = telemetry.NewHistogram("rote.read.latency", "ns")
	mRoundTrips       = telemetry.NewCounter("rote.round_trips", "broadcasts")
	mRetries          = telemetry.NewCounter("rote.retries", "attempts")
	mTimeouts         = telemetry.NewCounter("rote.timeouts", "attempts")
	mResyncs          = telemetry.NewCounter("rote.resyncs", "rejoins")
	mResyncFailures   = telemetry.NewCounter("rote.resync.failures", "attempts")
)

// wait is the modelled time on the counter protocol's path: one network
// round trip per broadcast, and a fault hook's reply delay.
var wait = simtime.NewLayer("rote")

// Errors returned by the group client.
var (
	ErrNoQuorum = errors.New("rote: quorum not reached")
	ErrRollback = errors.New("rote: counter regressed (rollback attempt)")
	// ErrResync is returned by Node.Resync when a read quorum of peers
	// cannot be assembled to rebuild an amnesic node's counter state.
	ErrResync = errors.New("rote: re-sync quorum not reached")
)

// Message is a signed counter-protocol message.
type message struct {
	Counter string
	Value   uint64
	MAC     [32]byte
}

// keyedMAC is one holder's HMAC-SHA256 state under the group key: the key
// is scheduled once and the state reset between messages, where hmac.New
// per message would schedule it every time.
type keyedMAC struct {
	mu  sync.Mutex
	h   hash.Hash
	buf []byte // the message, then its MAC
}

func newKeyedMAC(key []byte) *keyedMAC {
	return &keyedMAC{h: hmac.New(sha256.New, key), buf: make([]byte, 0, 64)}
}

// sum returns the MAC of one counter message.
func (k *keyedMAC) sum(counter string, value uint64) (out [32]byte) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.h.Reset()
	k.buf = binary.BigEndian.AppendUint64(append(k.buf[:0], counter...), value)
	k.h.Write(k.buf)
	k.buf = k.h.Sum(k.buf[:0])
	copy(out[:], k.buf)
	return out
}

// check reports whether m carries a valid MAC.
func (k *keyedMAC) check(m message) bool {
	want := k.sum(m.Counter, m.Value)
	return hmac.Equal(want[:], m.MAC[:])
}

// NodeFault describes the fate of one request at a node, as decided by an
// installed fault hook.
type NodeFault struct {
	// Drop makes the node not answer (crash/omission fault).
	Drop bool
	// Delay postpones the reply (overloaded or slow node) by Delay past the
	// round trip, as one modelled wait of its own. A delayed node is served
	// only while the call still lacks replies once every prompt node has
	// answered; otherwise its request is dropped.
	Delay time.Duration
	// Byzantine makes the node reply with a stale value and a bad MAC.
	Byzantine bool
	// Amnesia restarts the node amnesically before handling the request:
	// its volatile counter state is wiped and it refuses to serve until
	// Resync rebuilds the state from a read quorum of peers.
	Amnesia bool
}

// NodeFaultHook is consulted on every request a node handles. op is "store",
// "fetch" or "dump". It runs in the caller's goroutine; calls from
// concurrent callers may overlap, so implementations must be safe for
// concurrent use.
type NodeFaultHook func(nodeID int, op string) NodeFault

// Node is one counter-service node. In production each node is itself a
// LibSEAL enclave; here it is an in-process actor with the same interface.
type Node struct {
	id    int
	mac   *keyedMAC
	f     int     // the group's fault-tolerance parameter
	peers []*Node // the other group members, for restart re-sync

	mu       sync.Mutex
	counters map[string]uint64
	failed   bool
	synced   bool // false after an amnesic restart, until Resync succeeds
	hook     NodeFaultHook
}

// Fail makes the node stop responding (crash fault).
func (n *Node) Fail() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.failed = true
}

// Recover brings a failed node back (its state persisted).
func (n *Node) Recover() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.failed = false
}

// RestartAmnesiac simulates an amnesic crash-restart: the process comes
// back up but its volatile counter state is gone. The node refuses every
// request until Resync has rebuilt the state from a read quorum of its
// peers — an amnesic node that served immediately could acknowledge an
// increment it no longer remembers and break quorum intersection.
func (n *Node) RestartAmnesiac() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.counters = make(map[string]uint64)
	n.synced = false
	n.failed = false
}

// Synced reports whether the node is serving (it has never restarted
// amnesically, or its last Resync succeeded).
func (n *Node) Synced() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.synced
}

// Value returns the node's local view of the counter, for tests and health
// reporting. It bypasses the fault hook.
func (n *Node) Value(counter string) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.counters[counter]
}

// Resync rejoins the group after an amnesic restart — the re-provisioning
// step ReplicaTEE prescribes for restarted enclave replicas. The node
// fetches every counter from its peers, keeps only replies whose entries
// all authenticate, and once 2f+1 peers have answered adopts the
// per-counter maximum. Safety: any value committed before the restart was
// acknowledged by 2f+1 nodes, hence held by at least 2f peers; a read
// quorum of 2f+1 out of 3f peers intersects them in at least f+1 nodes, of
// which at least one is honest, so the adopted maximum never regresses a
// committed counter. Until Resync succeeds the node keeps refusing to
// serve, so rolling restarts of up to f nodes never widen the set of
// amnesic members beyond what quorum intersection tolerates.
func (n *Node) Resync(ctx context.Context) error {
	n.mu.Lock()
	if n.synced {
		n.mu.Unlock()
		return nil
	}
	peers := n.peers
	need := 2*n.f + 1
	n.mu.Unlock()

	adopted := make(map[string]uint64)
	valid := roundTrip(ctx, peers, 0, "dump", need, func(p *Node, f NodeFault) bool {
		msgs, ok := p.dump(f)
		if !ok {
			return false
		}
		for _, m := range msgs {
			if !n.mac.check(m) {
				return false // one forged entry discredits the whole reply
			}
		}
		for _, m := range msgs {
			if m.Value > adopted[m.Counter] {
				adopted[m.Counter] = m.Value
			}
		}
		return true
	})
	if valid < need {
		mResyncFailures.Inc()
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %v", ErrResync, err)
		}
		return fmt.Errorf("%w: %d/%d authenticated peer replies", ErrResync, valid, need)
	}
	n.mu.Lock()
	for c, v := range adopted {
		if v > n.counters[c] {
			n.counters[c] = v
		}
	}
	n.synced = true
	n.mu.Unlock()
	mResyncs.Inc()
	return nil
}

// SetFaultHook installs a per-request fault hook (nil clears it). The hook
// composes with Fail: it is consulted first, then the sticky node state
// applies.
func (n *Node) SetFaultHook(h NodeFaultHook) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hook = h
}

// fault consults the node's fault hook for one request and applies an
// amnesic restart at once; the caller applies the rest of the returned fault.
func (n *Node) fault(op string) NodeFault {
	n.mu.Lock()
	h := n.hook
	n.mu.Unlock()
	if h == nil {
		return NodeFault{}
	}
	f := h(n.id, op)
	if f.Amnesia {
		n.RestartAmnesiac()
	}
	return f
}

// store handles an increment request under the fault its hook decided. It
// returns an acknowledgement message or false if the node is down.
func (n *Node) store(req message, f NodeFault) (message, bool) {
	if f.Drop {
		return message{}, false
	} else if f.Byzantine {
		return message{Counter: req.Counter, Value: 0}, true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failed || !n.synced {
		// An amnesic node must stay silent until re-synced: acknowledging an
		// increment it would later forget breaks quorum intersection.
		return message{}, false
	}
	if !n.mac.check(req) {
		return message{}, false
	}
	// Monotonicity: never regress.
	if req.Value > n.counters[req.Counter] {
		n.counters[req.Counter] = req.Value
	}
	v := n.counters[req.Counter]
	return message{Counter: req.Counter, Value: v, MAC: n.mac.sum(req.Counter, v)}, true
}

// fetch handles a read request under the fault its hook decided.
func (n *Node) fetch(counter string, f NodeFault) (message, bool) {
	if f.Drop {
		return message{}, false
	} else if f.Byzantine {
		return message{Counter: counter, Value: 0}, true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failed || !n.synced {
		return message{}, false
	}
	v := n.counters[counter]
	return message{Counter: counter, Value: v, MAC: n.mac.sum(counter, v)}, true
}

// dump returns every counter entry the node holds, each individually
// MAC'd, for a restarting peer's re-sync. Failed and unsynced nodes stay
// silent; a byzantine node forges its entries (the requester discards the
// whole reply on the first bad MAC).
func (n *Node) dump(f NodeFault) ([]message, bool) {
	if f.Drop {
		return nil, false
	} else if f.Byzantine {
		return []message{{Counter: "forged", Value: ^uint64(0)}}, true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failed || !n.synced {
		return nil, false
	}
	msgs := make([]message, 0, len(n.counters))
	for c, v := range n.counters {
		msgs = append(msgs, message{Counter: c, Value: v, MAC: n.mac.sum(c, v)})
	}
	return msgs, true
}

// delayedNode is a node whose fault hook delayed its reply.
type delayedNode struct {
	n *Node
	f NodeFault
}

// roundTrip is the protocol's one request/reply exchange with nodes, run in
// the caller's goroutine; Group.broadcast and Node.Resync both use it. It
// waits rtt for the network round trip, then hands every node whose hook
// did not delay it the request (serve), in node order, before it returns.
// Then, only while fewer than need replies have counted, it serves the
// delayed nodes in delay order, each once its delay past the round trip has
// elapsed. serve reports whether the node's reply counts: it arrived and
// every MAC on it checks. roundTrip returns how many replies counted; it
// stops early, serving nobody more, when ctx is done during a wait.
func roundTrip(ctx context.Context, nodes []*Node, rtt time.Duration, op string, need int, serve func(*Node, NodeFault) bool) int {
	arrive := time.Now().Add(rtt)
	if wait.Wait(ctx, rtt) != nil {
		return 0
	}
	counted := 0
	var delayed []delayedNode
	for _, n := range nodes {
		f := n.fault(op)
		switch {
		case f.Delay > 0:
			delayed = append(delayed, delayedNode{n, f})
		case serve(n, f):
			counted++
		}
	}
	slices.SortStableFunc(delayed, func(a, b delayedNode) int { return cmp.Compare(a.f.Delay, b.f.Delay) })
	for _, d := range delayed {
		if counted >= need || wait.WaitUntil(ctx, arrive.Add(d.f.Delay)) != nil {
			break
		}
		if serve(d.n, d.f) {
			counted++
		}
	}
	return counted
}

// RetryPolicy bounds and retries quorum operations.
type RetryPolicy struct {
	// Timeout is the per-attempt bound; zero means no per-attempt timeout.
	Timeout time.Duration
	// Retries is the number of additional attempts after the first.
	Retries int
	// BackoffBase is the delay before the first retry; it doubles on each
	// subsequent retry (exponential backoff).
	BackoffBase time.Duration
	// BackoffMax caps the backoff delay.
	BackoffMax time.Duration
	// JitterSeed seeds the deterministic jitter source, so chaos runs that
	// fix the seed reproduce the same retry schedule.
	JitterSeed int64
}

// DefaultRetryPolicy is the policy installed by NewGroup: bounded attempts
// with three tries and sub-second backoff, tuned so a dead quorum surfaces
// as an error quickly instead of stalling the request path.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Timeout:     2 * time.Second,
		Retries:     2,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  250 * time.Millisecond,
	}
}

// Group is the client view of a counter group: the local LibSEAL instance
// plus 3f other nodes.
type Group struct {
	f       int
	nodes   []*Node
	mac     *keyedMAC
	latency time.Duration

	mu     sync.Mutex
	cache  map[string]uint64
	policy RetryPolicy
	jitter *mathrand.Rand
}

// NewGroup creates an in-process group tolerating f malicious/failed nodes
// (n = 3f+1 nodes total). latency models the one-way network delay to the
// other nodes; the paper deploys them in the same cluster.
func NewGroup(f int, latency time.Duration) (*Group, error) {
	if f < 0 {
		return nil, fmt.Errorf("rote: negative f")
	}
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return nil, err
	}
	g := &Group{f: f, mac: newKeyedMAC(key), latency: latency, cache: make(map[string]uint64)}
	g.setPolicy(DefaultRetryPolicy())
	for i := 0; i < 3*f+1; i++ {
		g.nodes = append(g.nodes, &Node{id: i, mac: newKeyedMAC(key), f: f, synced: true, counters: make(map[string]uint64)})
	}
	// Wire each node to its 3f peers so an amnesic restart can re-sync.
	for _, n := range g.nodes {
		for _, p := range g.nodes {
			if p != n {
				n.peers = append(n.peers, p)
			}
		}
	}
	return g, nil
}

// SetRetryPolicy replaces the group's retry policy.
func (g *Group) SetRetryPolicy(p RetryPolicy) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.setPolicy(p)
}

func (g *Group) setPolicy(p RetryPolicy) {
	g.policy = p
	g.jitter = mathrand.New(mathrand.NewSource(p.JitterSeed))
}

// Nodes exposes the group members for fault injection in tests.
func (g *Group) Nodes() []*Node { return g.nodes }

// NodeStatus is one group member's liveness view, for health reporting.
type NodeStatus struct {
	ID     int  `json:"id"`
	Alive  bool `json:"alive"`
	Synced bool `json:"synced"`
}

// NodeStatus reports each member's current fault and sync state. A node
// counts toward the quorum only when it is both alive and synced.
func (g *Group) NodeStatus() []NodeStatus {
	out := make([]NodeStatus, 0, len(g.nodes))
	for _, n := range g.nodes {
		n.mu.Lock()
		out = append(out, NodeStatus{ID: n.id, Alive: !n.failed, Synced: n.synced})
		n.mu.Unlock()
	}
	return out
}

// F returns the fault tolerance parameter.
func (g *Group) F() int { return g.f }

// quorum returns the required acknowledgement count, 2f+1.
func (g *Group) quorum() int { return 2*g.f + 1 }

// broadcast sends one request to every node over one round trip and hands
// each MAC-authenticated reply to take, until need of them are in (see
// roundTrip). It returns how many replies authenticated.
func (g *Group) broadcast(ctx context.Context, need int, op string, ask func(*Node, NodeFault) (message, bool), take func(message)) int {
	return roundTrip(ctx, g.nodes, 2*g.latency, op, need, func(n *Node, f NodeFault) bool {
		m, ok := ask(n, f)
		if !ok || !g.mac.check(m) {
			return false // silent, forged or byzantine
		}
		take(m)
		return true
	})
}

// attemptCtx derives the per-attempt context from the caller's.
func (g *Group) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	g.mu.Lock()
	timeout := g.policy.Timeout
	g.mu.Unlock()
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return context.WithCancel(ctx)
}

// backoff sleeps before retry `attempt` (0-based), honouring ctx. The delay
// grows exponentially from BackoffBase, capped at BackoffMax, with up to
// 50% deterministic jitter to de-synchronise competing clients.
func (g *Group) backoff(ctx context.Context, attempt int) error {
	g.mu.Lock()
	p := g.policy
	d := p.BackoffBase << uint(attempt)
	if p.BackoffMax > 0 && d > p.BackoffMax {
		d = p.BackoffMax
	}
	if d > 0 {
		d += time.Duration(g.jitter.Int63n(int64(d)/2 + 1))
	}
	g.mu.Unlock()
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retries returns the configured retry count.
func (g *Group) retries() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.policy.Retries
}

// runQuorum drives one quorum operation through the retry policy: each
// attempt gets its own bounded context and counts one broadcast round trip;
// failed attempts back off exponentially before retrying, and every failure
// path wraps ErrNoQuorum. attempt reports whether a quorum was assembled;
// detail describes a missed one for the error, and is called only then.
// Increment and Read share this loop, so their retry/backoff/attempt-timeout
// semantics cannot drift apart.
func (g *Group) runQuorum(ctx context.Context, attempt func(actx context.Context) bool, detail func() string) error {
	var lastErr error
	for try := 0; ; try++ {
		actx, cancel := g.attemptCtx(ctx)
		mRoundTrips.Inc()
		ok := attempt(actx)
		timedOut := actx.Err() == context.DeadlineExceeded
		cancel()
		if ok {
			return nil
		}
		if timedOut {
			mTimeouts.Inc()
		}
		lastErr = fmt.Errorf("%w: %s", ErrNoQuorum, detail())
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %v", ErrNoQuorum, err)
		}
		if try >= g.retries() {
			return lastErr
		}
		if err := g.backoff(ctx, try); err != nil {
			return fmt.Errorf("%w: %v", ErrNoQuorum, err)
		}
		mRetries.Inc()
	}
}

// Increment advances the named counter and returns its new value. The
// increment is durable once 2f+1 nodes acknowledged a value >= the new one.
func (g *Group) Increment(counter string) (uint64, error) {
	return g.IncrementContext(context.Background(), counter)
}

// IncrementContext is Increment bounded by a context: cancelling it aborts
// the quorum wait and any pending retries.
func (g *Group) IncrementContext(ctx context.Context, counter string) (uint64, error) {
	mIncrements.Inc()
	defer telemetry.ObserveSince(mIncrementLatency, "rote.increment", time.Now())
	g.mu.Lock()
	next := g.cache[counter] + 1
	g.cache[counter] = next
	g.mu.Unlock()

	req := message{Counter: counter, Value: next, MAC: g.mac.sum(counter, next)}
	acks := 0
	err := g.runQuorum(ctx, func(actx context.Context) bool {
		acks = 0
		// Re-broadcasting the same value is idempotent: nodes take the max.
		g.broadcast(actx, g.quorum(), "store", func(n *Node, f NodeFault) (message, bool) {
			return n.store(req, f)
		}, func(m message) {
			if m.Value >= next {
				acks++
			}
		})
		return acks >= g.quorum()
	}, func() string {
		return fmt.Sprintf("%d/%d acks for %s=%d", acks, g.quorum(), counter, next)
	})
	if err != nil {
		return 0, err
	}
	return next, nil
}

// Read returns the counter's current stable value: the maximum value
// confirmed by the quorum view. Used after restart to detect log rollback.
func (g *Group) Read(counter string) (uint64, error) {
	return g.ReadContext(context.Background(), counter)
}

// ReadContext is Read bounded by a context. It honours the group's
// RetryPolicy exactly as IncrementContext does — both run the shared
// runQuorum loop.
func (g *Group) ReadContext(ctx context.Context, counter string) (uint64, error) {
	mReads.Inc()
	defer telemetry.ObserveSince(mReadLatency, "rote.read", time.Now())
	var maxVal uint64
	replies := 0
	err := g.runQuorum(ctx, func(actx context.Context) bool {
		maxVal = 0
		replies = g.broadcast(actx, g.quorum(), "fetch", func(n *Node, f NodeFault) (message, bool) {
			return n.fetch(counter, f)
		}, func(m message) {
			maxVal = max(maxVal, m.Value)
		})
		return replies >= g.quorum()
	}, func() string {
		return fmt.Sprintf("%d/%d responses", replies, g.quorum())
	})
	if err != nil {
		return 0, err
	}
	g.mu.Lock()
	if maxVal > g.cache[counter] {
		g.cache[counter] = maxVal
	}
	g.mu.Unlock()
	return maxVal, nil
}
