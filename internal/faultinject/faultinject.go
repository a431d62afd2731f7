// Package faultinject is a deterministic, seedable fault-injection layer
// for LibSEAL's chaos and robustness tests. It plugs into the existing
// seams of the system — netsim links (drops, resets, latency spikes,
// partitions), rote counter nodes (crash/recover schedules, Byzantine
// replies, slow replies) and the persistence filesystem (torn writes,
// silent corruption, ENOSPC) — and drives them from a declarative scenario
// spec, so a chaos run is reproducible from its seed and rule list.
//
// Faults trigger on per-target operation counts rather than wall-clock
// time: "crash node 2 for its ops [10, 30)" yields the same schedule on
// every run that performs the same operations, which is what lets the
// chaos soak test assert exact recovery outcomes.
package faultinject

import (
	"fmt"
	mathrand "math/rand"
	"strings"
	"sync"
	"time"

	"libseal/internal/netsim"
	"libseal/internal/rote"
)

// Op enumerates the injectable fault kinds.
type Op int

// Fault kinds. Link ops apply to "link:<addr>" targets, node ops to
// "node:<id>" targets, and filesystem ops to "fs:<file>" (or "fs") targets.
const (
	// OpDrop silently discards a link write.
	OpDrop Op = iota
	// OpReset fails a link write with a connection reset.
	OpReset
	// OpDelay adds latency to a link write.
	OpDelay
	// OpCrash makes a counter node unresponsive.
	OpCrash
	// OpByzantine makes a counter node reply with stale, badly-MACed state.
	OpByzantine
	// OpSlow delays a counter node's replies.
	OpSlow
	// OpTornWrite persists only a prefix of a file write, then fails it —
	// the on-disk image a power cut mid-write leaves behind.
	OpTornWrite
	// OpENOSPC fails a file write with ENOSPC. It persists nothing, or the
	// prefix before Rule.Offset — the disk filled part-way through the write.
	OpENOSPC
	// OpCorrupt flips a byte of a file write and reports success.
	OpCorrupt
	// OpAmnesia restarts a counter node amnesically: volatile counter state
	// is wiped and the node refuses to serve until it re-syncs from peers.
	OpAmnesia
	// OpStall delays a file write — a degraded disk or saturated I/O queue
	// rather than a failure.
	OpStall
)

func (o Op) String() string {
	switch o {
	case OpDrop:
		return "drop"
	case OpReset:
		return "reset"
	case OpDelay:
		return "delay"
	case OpCrash:
		return "crash"
	case OpByzantine:
		return "byzantine"
	case OpSlow:
		return "slow"
	case OpTornWrite:
		return "torn-write"
	case OpENOSPC:
		return "enospc"
	case OpCorrupt:
		return "corrupt"
	case OpAmnesia:
		return "amnesia"
	case OpStall:
		return "stall"
	}
	return "?"
}

// Rule schedules one fault against one target.
type Rule struct {
	// Target names what the rule applies to: "link:<address>",
	// "node:<id>", "fs:<filename>", or "fs" for every file.
	Target string
	// Op is the fault kind.
	Op Op
	// After activates the rule once the target has performed this many
	// operations (link writes, node requests, file writes).
	After int
	// Until deactivates the rule at this operation count; zero makes the
	// rule fire exactly once, at operation After.
	Until int
	// Prob fires the rule with this probability while active, drawn from
	// the injector's seeded source; zero or >= 1 means always. Because
	// draw order depends on goroutine scheduling, probabilistic rules are
	// statistically — not bitwise — reproducible; count-based rules are
	// exact.
	Prob float64
	// Delay is the added latency for OpDelay and OpSlow.
	Delay time.Duration
	// Offset, when positive, is the byte of a file write where OpTornWrite,
	// OpENOSPC and OpCorrupt strike: the torn write or the full disk persists
	// the bytes before it, corruption flips it. Zero keeps each op's default —
	// half the write persisted, nothing persisted, the middle byte flipped.
	// A record group reaches its file in one write, so an offset is how a
	// fault lands in a chosen record of the group.
	Offset int
}

// AtByte returns the rule striking at byte offset of the write (Offset).
func (r Rule) AtByte(offset int) Rule {
	r.Offset = offset
	return r
}

// at is the write position of a fault on a write of n bytes: Offset when set
// and inside the write, otherwise def.
func (r Rule) at(n, def int) int {
	if r.Offset > 0 && r.Offset < n {
		return r.Offset
	}
	return def
}

// active reports whether the rule applies to the target's n-th operation.
func (r Rule) active(target string, n int) bool {
	if r.Target != target && !(r.Target == "fs" && strings.HasPrefix(target, "fs:")) {
		return false
	}
	if r.Until > 0 {
		return n >= r.After && n < r.Until
	}
	return n == r.After
}

// Scenario is a reproducible chaos schedule.
type Scenario struct {
	// Seed drives probabilistic rules and any jitter derived from the
	// injector.
	Seed int64
	// Rules is the fault schedule.
	Rules []Rule
}

// Build compiles the scenario into an injector.
func (s Scenario) Build() *Injector {
	in := New(s.Seed)
	in.Add(s.Rules...)
	return in
}

// Injector applies scenario rules to the seams it is attached to. One
// injector can drive links, nodes and filesystems at once; per-target
// operation counters make its decisions deterministic.
type Injector struct {
	mu     sync.Mutex
	rng    *mathrand.Rand
	rules  []Rule
	counts map[string]int
	trace  []string
}

// New creates an injector whose probabilistic decisions derive from seed.
func New(seed int64) *Injector {
	return &Injector{
		rng:    mathrand.New(mathrand.NewSource(seed)),
		counts: make(map[string]int),
	}
}

// Add appends rules to the schedule.
func (in *Injector) Add(rules ...Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = append(in.rules, rules...)
}

// Count returns how many operations the target has performed.
func (in *Injector) Count(target string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[target]
}

// Trace returns the log of fired faults ("<target>#<op> <fault>"), in
// firing order.
func (in *Injector) Trace() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.trace...)
}

// step counts one operation on the target and returns the rules firing for
// it, recording them in the trace.
func (in *Injector) step(target string) []Rule {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := in.counts[target]
	in.counts[target] = n + 1
	var fired []Rule
	for _, r := range in.rules {
		if !r.active(target, n) {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && in.rng.Float64() >= r.Prob {
			continue
		}
		fired = append(fired, r)
		in.trace = append(in.trace, fmt.Sprintf("%s#%d %s", target, n, r.Op))
	}
	return fired
}

// LinkFault returns the netsim fault function for the named address,
// driven by the injector's "link:<address>" rules. Install it with
// Network.SetLinkFault(address, ...).
func (in *Injector) LinkFault(address string) netsim.FaultFunc {
	target := "link:" + address
	return func(int) netsim.Fault {
		var f netsim.Fault
		for _, r := range in.step(target) {
			switch r.Op {
			case OpDrop:
				f.Drop = true
			case OpReset:
				f.Reset = true
			case OpDelay:
				f.Delay += r.Delay
			}
		}
		return f
	}
}

// NodeHook returns the rote fault hook driven by the injector's
// "node:<id>" rules. Install it on every node of a group.
func (in *Injector) NodeHook() rote.NodeFaultHook {
	return func(nodeID int, _ string) rote.NodeFault {
		target := fmt.Sprintf("node:%d", nodeID)
		var f rote.NodeFault
		for _, r := range in.step(target) {
			switch r.Op {
			case OpCrash:
				f.Drop = true
			case OpByzantine:
				f.Byzantine = true
			case OpSlow:
				f.Delay += r.Delay
			case OpAmnesia:
				f.Amnesia = true
			}
		}
		return f
	}
}

// AttachGroup installs the injector's node hook on every node of the group.
func (in *Injector) AttachGroup(g *rote.Group) {
	h := in.NodeHook()
	for _, n := range g.Nodes() {
		n.SetFaultHook(h)
	}
}

// Convenience rule constructors, so scenario specs read as schedules.

// CrashNode makes node id unresponsive for its operations [after, until).
func CrashNode(id, after, until int) Rule {
	return Rule{Target: fmt.Sprintf("node:%d", id), Op: OpCrash, After: after, Until: until}
}

// ByzantineNode makes node id reply with stale state for ops [after, until).
func ByzantineNode(id, after, until int) Rule {
	return Rule{Target: fmt.Sprintf("node:%d", id), Op: OpByzantine, After: after, Until: until}
}

// SlowNode delays node id's replies by d for its operations [after, until).
func SlowNode(id, after, until int, d time.Duration) Rule {
	return Rule{Target: fmt.Sprintf("node:%d", id), Op: OpSlow, After: after, Until: until, Delay: d}
}

// DropLink discards writes on the link to addr for its ops [after, until) —
// a partition window.
func DropLink(addr string, after, until int) Rule {
	return Rule{Target: "link:" + addr, Op: OpDrop, After: after, Until: until}
}

// ResetLink resets the link to addr at write number at.
func ResetLink(addr string, at int) Rule {
	return Rule{Target: "link:" + addr, Op: OpReset, After: at}
}

// DelayLink adds d of latency to writes [after, until) on the link to addr.
func DelayLink(addr string, after, until int, d time.Duration) Rule {
	return Rule{Target: "link:" + addr, Op: OpDelay, After: after, Until: until, Delay: d}
}

// TornWrite tears the file's write number at (a crash mid-write).
func TornWrite(file string, at int) Rule {
	return Rule{Target: "fs:" + file, Op: OpTornWrite, After: at}
}

// NoSpace fails the file's writes [after, until) with ENOSPC.
func NoSpace(file string, after, until int) Rule {
	return Rule{Target: "fs:" + file, Op: OpENOSPC, After: after, Until: until}
}

// CorruptWrite silently corrupts the file's write number at.
func CorruptWrite(file string, at int) Rule {
	return Rule{Target: "fs:" + file, Op: OpCorrupt, After: at}
}

// AmnesicRestart restarts node id amnesically at its operation number at:
// counter state is wiped and the node refuses requests until it re-syncs.
func AmnesicRestart(id, at int) Rule {
	return Rule{Target: fmt.Sprintf("node:%d", id), Op: OpAmnesia, After: at}
}

// StallWrites delays the file's writes [after, until) by d — a degraded
// disk backing up the group-commit pipeline.
func StallWrites(file string, after, until int, d time.Duration) Rule {
	return Rule{Target: "fs:" + file, Op: OpStall, After: after, Until: until, Delay: d}
}
