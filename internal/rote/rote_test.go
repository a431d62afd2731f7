package rote

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestIncrementMonotonic(t *testing.T) {
	g, err := NewGroup(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want <= 5; want++ {
		got, err := g.Increment("log")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Increment = %d, want %d", got, want)
		}
	}
	v, err := g.Read("log")
	if err != nil || v != 5 {
		t.Fatalf("Read = %d, %v", v, err)
	}
}

func TestIndependentCounters(t *testing.T) {
	g, _ := NewGroup(1, 0)
	g.Increment("a")
	g.Increment("a")
	g.Increment("b")
	if v, _ := g.Read("a"); v != 2 {
		t.Fatalf("a = %d", v)
	}
	if v, _ := g.Read("b"); v != 1 {
		t.Fatalf("b = %d", v)
	}
}

func TestToleratesFCrashedNodes(t *testing.T) {
	g, _ := NewGroup(1, 0) // n=4, tolerates 1
	g.Nodes()[3].Fail()
	if _, err := g.Increment("log"); err != nil {
		t.Fatalf("increment with f crashed nodes: %v", err)
	}
	if _, err := g.Read("log"); err != nil {
		t.Fatalf("read with f crashed nodes: %v", err)
	}
}

func TestFailsBeyondF(t *testing.T) {
	g, _ := NewGroup(1, 0)
	g.Nodes()[2].Fail()
	g.Nodes()[3].Fail()
	if _, err := g.Increment("log"); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err = %v, want ErrNoQuorum", err)
	}
}

// byzantine is a fault hook that makes a node forge every reply: a stale
// value, or an inflated dump, under a bad MAC.
func byzantine(int, string) NodeFault { return NodeFault{Byzantine: true} }

func TestToleratesByzantineNode(t *testing.T) {
	g, _ := NewGroup(1, 0)
	g.Nodes()[0].SetFaultHook(byzantine)
	for i := 0; i < 3; i++ {
		if _, err := g.Increment("log"); err != nil {
			t.Fatalf("increment with byzantine node: %v", err)
		}
	}
	v, err := g.Read("log")
	if err != nil || v != 3 {
		t.Fatalf("Read = %d, %v; byzantine stale value must not win", v, err)
	}
}

func TestNodeRecovery(t *testing.T) {
	g, _ := NewGroup(1, 0)
	g.Increment("log")
	g.Nodes()[1].Fail()
	g.Increment("log")
	g.Nodes()[1].Recover()
	// The recovered node retains its (stale) state; quorum still reads 2.
	if v, _ := g.Read("log"); v != 2 {
		t.Fatalf("Read = %d, want 2", v)
	}
}

func TestConcurrentIncrements(t *testing.T) {
	g, _ := NewGroup(1, 0)
	const goroutines = 8
	const per = 25
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if _, err := g.Increment("log"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	v, err := g.Read("log")
	if err != nil || v != goroutines*per {
		t.Fatalf("final counter = %d, %v; want %d", v, err, goroutines*per)
	}
}

func TestLatencyCharged(t *testing.T) {
	g, _ := NewGroup(1, 5*time.Millisecond)
	start := time.Now()
	if _, err := g.Increment("log"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("increment took %v, want >= 2x latency", d)
	}
}

// A round trip takes the latency the group models, not a runtime timer's
// millisecond: at 250 µs one way an increment is a 500 µs round trip plus
// the protocol's own work. With a Go timer per node it took ≈1.1 ms. The
// median bound gets three rounds, so a round a loaded machine slowed does
// not fail it; a timer fails all three.
func TestRoundTripTakesModelledLatency(t *testing.T) {
	const oneWay = 250 * time.Microsecond
	g, err := NewGroup(1, oneWay)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; ; round++ {
		took := make([]time.Duration, 31)
		for i := range took {
			start := time.Now()
			if _, err := g.Increment("log"); err != nil {
				t.Fatal(err)
			}
			took[i] = time.Since(start)
			if took[i] < 2*oneWay {
				t.Fatalf("increment %d took %v, under the %v round trip", i, took[i], 2*oneWay)
			}
		}
		slices.Sort(took)
		med := took[len(took)/2]
		if med <= 2*oneWay+400*time.Microsecond {
			return
		}
		if round == 2 {
			t.Fatalf("median increment %v, want about the %v round trip", med, 2*oneWay)
		}
	}
}

func TestQuorumSizes(t *testing.T) {
	for f := 0; f <= 3; f++ {
		g, err := NewGroup(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Nodes()) != 3*f+1 {
			t.Fatalf("f=%d: %d nodes, want %d", f, len(g.Nodes()), 3*f+1)
		}
		if g.quorum() != 2*f+1 {
			t.Fatalf("f=%d: quorum %d, want %d", f, g.quorum(), 2*f+1)
		}
		if _, err := g.Increment("x"); err != nil {
			t.Fatalf("f=%d increment: %v", f, err)
		}
	}
}

func TestMonotonicityProperty(t *testing.T) {
	// Property: any interleaving of increments and reads yields a
	// non-decreasing sequence of observed values.
	f := func(ops []bool) bool {
		g, err := NewGroup(1, 0)
		if err != nil {
			return false
		}
		var last uint64
		for _, inc := range ops {
			var v uint64
			if inc {
				v, err = g.Increment("c")
			} else {
				v, err = g.Read("c")
			}
			if err != nil || v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Every prompt node handles an increment before it returns, not only the
// first quorum to answer: a node that had not run yet when the quorum was in
// used to store the value later, or — once the attempt was cancelled — never.
func TestPromptNodesHoldEveryIncrement(t *testing.T) {
	g, err := NewGroup(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		v, err := g.Increment("log")
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range g.Nodes() {
			if got := n.Value("log"); got != v {
				t.Fatalf("increment %d: node %d holds %d, want %d", i, n.ID(), got, v)
			}
		}
	}
}

// One zero-latency f = 1 increment: a keyed MAC state per holder and no
// goroutine or channel per node. It took 113 allocations with a goroutine,
// a channel and an hmac.New per MAC.
func TestIncrementAllocs(t *testing.T) {
	g, err := NewGroup(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := g.Increment("log"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 56 {
		t.Fatalf("%.0f allocations per increment, want <= 56", allocs)
	}
	t.Logf("%.0f allocations per increment", allocs)
}
