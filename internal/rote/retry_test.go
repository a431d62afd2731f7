package rote

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func fastPolicy() RetryPolicy {
	return RetryPolicy{
		Timeout:     200 * time.Millisecond,
		Retries:     2,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
}

func TestRetryRecoversFromTransientOutage(t *testing.T) {
	g, err := NewGroup(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.SetRetryPolicy(fastPolicy())
	// Nodes 0 and 1 drop their first store request: attempt one sees only
	// 2/3 acks and fails; the retry re-broadcasts the same value and wins.
	for _, n := range g.Nodes()[:2] {
		var seen atomic.Int64
		n.SetFaultHook(func(id int, op string) NodeFault {
			if op != "store" {
				return NodeFault{}
			}
			return NodeFault{Drop: seen.Add(1) == 1}
		})
	}
	v, err := g.Increment("c")
	if err != nil {
		t.Fatalf("increment: %v", err)
	}
	if v != 1 {
		t.Fatalf("value = %d, want 1 (retry must not re-increment)", v)
	}
	if got, _ := g.Read("c"); got != 1 {
		t.Fatalf("read = %d, want 1", got)
	}
}

func TestIncrementContextCancelled(t *testing.T) {
	g, err := NewGroup(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := fastPolicy()
	p.Retries = 100 // without cancellation this would grind for a while
	g.SetRetryPolicy(p)
	for _, n := range g.Nodes() {
		n.Fail()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = g.IncrementContext(ctx, "c")
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err = %v, want ErrNoQuorum", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled increment took %v", elapsed)
	}
}

func TestEarlyQuorumReturnSkipsSlowNode(t *testing.T) {
	g, err := NewGroup(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := fastPolicy()
	p.Timeout = 5 * time.Second
	g.SetRetryPolicy(p)
	// One node answers half a second late. The quorum of the three prompt
	// nodes must carry the increment without waiting for it.
	g.Nodes()[3].SetFaultHook(func(int, string) NodeFault {
		return NodeFault{Delay: 500 * time.Millisecond}
	})
	start := time.Now()
	if _, err := g.Increment("c"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("increment waited %v on the slow node", elapsed)
	}
}

func TestPerAttemptTimeoutBoundsDeadQuorum(t *testing.T) {
	g, err := NewGroup(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.SetRetryPolicy(RetryPolicy{
		Timeout:     50 * time.Millisecond,
		Retries:     1,
		BackoffBase: time.Millisecond,
	})
	// All nodes hang (delay far beyond the attempt timeout).
	for _, n := range g.Nodes() {
		n.SetFaultHook(func(int, string) NodeFault {
			return NodeFault{Delay: 10 * time.Second}
		})
	}
	start := time.Now()
	_, err = g.Increment("c")
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err = %v, want ErrNoQuorum", err)
	}
	// Two attempts of ~50 ms plus backoff: well under a second.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dead quorum stalled the caller for %v", elapsed)
	}
}

func TestReadRetrySemanticsMatchIncrement(t *testing.T) {
	// Regression: ReadContext must honour RetryPolicy exactly as
	// IncrementContext does. With Retries=2 and every request dropped, each
	// node must see exactly 3 store attempts and exactly 3 fetch attempts —
	// one initial broadcast plus two retries, for both operations.
	g, err := NewGroup(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.SetRetryPolicy(fastPolicy())
	counts := make(map[int]map[string]*atomic.Int64)
	for _, n := range g.Nodes() {
		per := map[string]*atomic.Int64{"store": {}, "fetch": {}}
		counts[n.ID()] = per
		n.SetFaultHook(func(id int, op string) NodeFault {
			if c, ok := per[op]; ok {
				c.Add(1)
			}
			return NodeFault{Drop: true}
		})
	}
	if _, err := g.IncrementContext(context.Background(), "c"); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("increment: %v, want ErrNoQuorum", err)
	}
	if _, err := g.ReadContext(context.Background(), "c"); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("read: %v, want ErrNoQuorum", err)
	}
	want := int64(fastPolicy().Retries + 1)
	for id, per := range counts {
		stores, fetches := per["store"].Load(), per["fetch"].Load()
		if stores != want || fetches != want {
			t.Fatalf("node %d saw %d stores and %d fetches, want %d of each",
				id, stores, fetches, want)
		}
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	delays := func(seed int64) []time.Duration {
		g, err := NewGroup(0, 0) // single node, no quorum issues
		if err != nil {
			t.Fatal(err)
		}
		g.SetRetryPolicy(RetryPolicy{
			BackoffBase: 10 * time.Millisecond,
			BackoffMax:  80 * time.Millisecond,
			JitterSeed:  seed,
		})
		var out []time.Duration
		for attempt := 0; attempt < 5; attempt++ {
			start := time.Now()
			if err := g.backoff(context.Background(), attempt); err != nil {
				t.Fatal(err)
			}
			out = append(out, time.Since(start))
		}
		return out
	}
	a, b := delays(7), delays(7)
	for i := range a {
		// Same seed, same schedule — allow generous scheduling slop but the
		// jittered targets must agree to within it.
		diff := a[i] - b[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > 30*time.Millisecond {
			t.Fatalf("attempt %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// A node its hook delays is served only while the call still lacks replies:
// behind three prompt nodes its request is dropped once the quorum is in
// (the cancelled attempt used to drop it), and with a prompt node down it is
// waited for and carries the quorum.
func TestDelayedNodeDroppedOnceQuorumMet(t *testing.T) {
	g, err := NewGroup(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.SetRetryPolicy(fastPolicy())
	const delay = 20 * time.Millisecond
	slow := g.Nodes()[3]
	var asked atomic.Int64
	slow.SetFaultHook(func(int, string) NodeFault {
		asked.Add(1)
		return NodeFault{Delay: delay}
	})
	v, err := g.Increment("c")
	if err != nil {
		t.Fatal(err)
	}
	if got := slow.Value("c"); got != 0 {
		t.Fatalf("delayed node holds %d after a quorum without it, want 0", got)
	}
	if n := asked.Load(); n != 1 {
		t.Fatalf("delayed node's hook consulted %d times, want 1", n)
	}

	g.Nodes()[0].Fail()
	start := time.Now()
	if v, err = g.Increment("c"); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < delay {
		t.Fatalf("increment needing the delayed node took %v, under its %v delay", took, delay)
	}
	if got := slow.Value("c"); got != v {
		t.Fatalf("delayed node holds %d, want %d: the quorum needed it", got, v)
	}
}
