package rote

import (
	"context"
	"errors"
	"testing"
)

func newTestGroup(t *testing.T, f int) *Group {
	t.Helper()
	g, err := NewGroup(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.SetRetryPolicy(fastPolicy())
	return g
}

func TestAmnesicNodeRefusesUntilResync(t *testing.T) {
	g := newTestGroup(t, 1)
	for i := 0; i < 3; i++ {
		if _, err := g.Increment("c"); err != nil {
			t.Fatal(err)
		}
	}
	n := g.Nodes()[3]
	n.RestartAmnesiac()
	if n.Synced() {
		t.Fatal("amnesic node reports synced")
	}
	if v := n.Value("c"); v != 0 {
		t.Fatalf("amnesic node kept state: %d", v)
	}
	// The amnesic node must not acknowledge: its ack would not survive a
	// second crash. The other 3 nodes still form the 2f+1 quorum.
	if _, err := g.Increment("c"); err != nil {
		t.Fatalf("increment with one amnesic node: %v", err)
	}
	if v := n.Value("c"); v != 0 {
		t.Fatal("unsynced node accepted a store")
	}
	if err := n.Resync(context.Background()); err != nil {
		t.Fatalf("resync: %v", err)
	}
	if !n.Synced() {
		t.Fatal("node not synced after successful Resync")
	}
	if v := n.Value("c"); v < 4 {
		t.Fatalf("resync adopted %d, want >= 4", v)
	}
	// Resync on a synced node is a no-op.
	if err := n.Resync(context.Background()); err != nil {
		t.Fatalf("idempotent resync: %v", err)
	}
}

func TestResyncNeedsReadQuorumOfPeers(t *testing.T) {
	g := newTestGroup(t, 1)
	if _, err := g.Increment("c"); err != nil {
		t.Fatal(err)
	}
	n := g.Nodes()[0]
	n.RestartAmnesiac()
	// With f=1 the node has 3 peers and needs 2f+1 = 3 authenticated
	// replies; one crashed peer makes re-sync impossible.
	g.Nodes()[1].Fail()
	if err := n.Resync(context.Background()); !errors.Is(err, ErrResync) {
		t.Fatalf("resync with a failed peer: %v, want ErrResync", err)
	}
	if n.Synced() {
		t.Fatal("node marked synced after failed resync")
	}
	g.Nodes()[1].Recover()
	if err := n.Resync(context.Background()); err != nil {
		t.Fatalf("resync after peer recovery: %v", err)
	}
	if v := n.Value("c"); v != 1 {
		t.Fatalf("adopted %d, want 1", v)
	}
}

func TestResyncDiscardsForgedReplies(t *testing.T) {
	g := newTestGroup(t, 1)
	for i := 0; i < 3; i++ {
		if _, err := g.Increment("c"); err != nil {
			t.Fatal(err)
		}
	}
	n := g.Nodes()[0]
	n.RestartAmnesiac()
	// A byzantine peer dumps an inflated value under a bad MAC. The whole
	// reply must be discarded, leaving only 2/3 valid replies.
	g.Nodes()[1].SetFaultHook(byzantine)
	if err := n.Resync(context.Background()); !errors.Is(err, ErrResync) {
		t.Fatalf("resync with forged reply: %v, want ErrResync", err)
	}
	g.Nodes()[1].SetFaultHook(nil)
	if err := n.Resync(context.Background()); err != nil {
		t.Fatalf("resync after peer honesty: %v", err)
	}
	if v := n.Value("c"); v != 3 {
		t.Fatalf("adopted %d, want 3 (forged inflated value must not survive)", v)
	}
}

func TestRollingAmnesicRestartsNeverRegress(t *testing.T) {
	g := newTestGroup(t, 1)
	ctx := context.Background()
	for _, n := range g.Nodes() {
		if _, err := g.Increment("c"); err != nil {
			t.Fatal(err)
		}
		before, err := g.Read("c")
		if err != nil {
			t.Fatal(err)
		}
		n.RestartAmnesiac()
		// Traffic continues while the node is down-for-resync.
		if _, err := g.Increment("c"); err != nil {
			t.Fatalf("increment during restart of node %d: %v", n.ID(), err)
		}
		if err := n.Resync(ctx); err != nil {
			t.Fatalf("resync node %d: %v", n.ID(), err)
		}
		if v := n.Value("c"); v < before {
			t.Fatalf("node %d regressed: %d < %d", n.ID(), v, before)
		}
	}
	// After the full rolling restart every node holds the committed value.
	stable, err := g.Read("c")
	if err != nil {
		t.Fatal(err)
	}
	if stable != uint64(2*len(g.Nodes())) {
		t.Fatalf("stable = %d, want %d", stable, 2*len(g.Nodes()))
	}
}

func TestAmnesiaFaultHook(t *testing.T) {
	g := newTestGroup(t, 1)
	if _, err := g.Increment("c"); err != nil {
		t.Fatal(err)
	}
	n := g.Nodes()[2]
	fired := false
	n.SetFaultHook(func(id int, op string) NodeFault {
		if op == "store" && !fired {
			fired = true
			return NodeFault{Amnesia: true}
		}
		return NodeFault{}
	})
	// The hook wipes the node mid-request; the request itself must then be
	// refused (the node is unsynced), but the quorum of the other 3 carries.
	if _, err := g.Increment("c"); err != nil {
		t.Fatal(err)
	}
	if n.Synced() {
		t.Fatal("hook-injected amnesia did not unsync the node")
	}
	st := g.NodeStatus()
	if st[2].Synced || !st[2].Alive {
		t.Fatalf("NodeStatus[2] = %+v, want alive and unsynced", st[2])
	}
	if err := n.Resync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v := n.Value("c"); v != 2 {
		t.Fatalf("adopted %d, want 2", v)
	}
}

func TestResyncImpossibleWithZeroF(t *testing.T) {
	// An f=0 group has no peers: amnesia is unrecoverable, and Resync must
	// say so rather than serve from empty state.
	g := newTestGroup(t, 0)
	if _, err := g.Increment("c"); err != nil {
		t.Fatal(err)
	}
	n := g.Nodes()[0]
	n.RestartAmnesiac()
	if err := n.Resync(context.Background()); !errors.Is(err, ErrResync) {
		t.Fatalf("resync with no peers: %v, want ErrResync", err)
	}
	if _, err := g.Increment("c"); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("increment on unsynced singleton: %v, want ErrNoQuorum", err)
	}
}
