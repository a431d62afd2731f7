package faultinject

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"libseal/internal/rote"
	"libseal/internal/vfs"
)

func TestRuleWindows(t *testing.T) {
	in := Scenario{Seed: 1, Rules: []Rule{
		CrashNode(0, 2, 5),  // ops [2,5)
		TornWrite("log", 3), // exactly op 3
		{Target: "fs", Op: OpENOSPC, After: 7, Until: 8}, // wildcard fs target
	}}.Build()

	for i := 0; i < 8; i++ {
		fired := in.step("node:0")
		want := i >= 2 && i < 5
		if (len(fired) == 1) != want {
			t.Fatalf("node:0 op %d: fired=%v, want %v", i, fired, want)
		}
	}
	for i := 0; i < 8; i++ {
		fired := in.step("fs:log")
		switch {
		case i == 3:
			if len(fired) != 1 || fired[0].Op != OpTornWrite {
				t.Fatalf("fs:log op 3: fired=%v", fired)
			}
		case i == 7:
			if len(fired) != 1 || fired[0].Op != OpENOSPC {
				t.Fatalf("fs:log op 7 (wildcard): fired=%v", fired)
			}
		default:
			if len(fired) != 0 {
				t.Fatalf("fs:log op %d: fired=%v", i, fired)
			}
		}
	}
	if got := in.Count("node:0"); got != 8 {
		t.Fatalf("Count(node:0) = %d", got)
	}
	trace := in.Trace()
	want := []string{
		"node:0#2 crash", "node:0#3 crash", "node:0#4 crash",
		"fs:log#3 torn-write", "fs:log#7 enospc",
	}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace[%d] = %q, want %q", i, trace[i], want[i])
		}
	}
}

func TestDeterministicTrace(t *testing.T) {
	// Count-based rules plus a probabilistic rule drawn in a fixed order
	// must reproduce the same trace from the same seed.
	scenario := Scenario{Seed: 42, Rules: []Rule{
		{Target: "link:a", Op: OpDrop, After: 0, Until: 50, Prob: 0.3},
		CrashNode(1, 5, 10),
	}}
	run := func() []string {
		in := scenario.Build()
		for i := 0; i < 50; i++ {
			in.step("link:a")
		}
		for i := 0; i < 12; i++ {
			in.step("node:1")
		}
		return in.Trace()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestFSTornWriteWedgesHandle(t *testing.T) {
	dir := t.TempDir()
	in := Scenario{Rules: []Rule{TornWrite("x.log", 1)}}.Build()
	fs := in.FS(nil)
	f, err := fs.Create(filepath.Join(dir, "x.log"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("head")); err != nil {
		t.Fatalf("write 0: %v", err)
	}
	n, err := f.Write([]byte("0123456789"))
	if !errors.Is(err, ErrTornWrite) {
		t.Fatalf("write 1: n=%d err=%v, want ErrTornWrite", n, err)
	}
	if n != 5 {
		t.Fatalf("torn write persisted %d bytes, want half (5)", n)
	}
	// The simulated process is dead: nothing further reaches the disk.
	if _, err := f.Write([]byte("more")); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("write after tear: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("sync after tear: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "x.log"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "head01234" {
		t.Fatalf("on-disk image = %q", data)
	}
}

func TestFSNoSpaceAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	in := Scenario{Rules: []Rule{
		NoSpace("x.log", 1, 2),
		CorruptWrite("x.log", 2),
	}}.Build()
	fs := in.FS(vfs.OS{})
	f, err := fs.Create(filepath.Join(dir, "x.log"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("aa")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("bb")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	// Corruption reports success: the caller cannot see it.
	if _, err := f.Write([]byte("cccc")); err != nil {
		t.Fatalf("corrupt write should report success, got %v", err)
	}
	f.Close()
	data, _ := os.ReadFile(filepath.Join(dir, "x.log"))
	if string(data) == "aacccc" {
		t.Fatal("corrupt write was not corrupted")
	}
	if len(data) != 6 {
		t.Fatalf("on-disk image = %q", data)
	}
}

// TestFSFaultsAtByte: with an offset, a full disk persists the bytes before
// it, a torn write persists exactly those, and corruption flips that byte.
func TestFSFaultsAtByte(t *testing.T) {
	for _, tc := range []struct {
		rule Rule
		want string
		fail bool
	}{
		{NoSpace("x.log", 0, 1).AtByte(3), "abc", true},
		{TornWrite("x.log", 0).AtByte(6), "abcdef", true},
		{CorruptWrite("x.log", 0).AtByte(1), "a\x9dcdefgh", false},
		{NoSpace("x.log", 0, 1).AtByte(99), "", true}, // past the write: the default
	} {
		path := filepath.Join(t.TempDir(), "x.log")
		f, err := Scenario{Rules: []Rule{tc.rule}}.Build().FS(nil).Create(path)
		if err != nil {
			t.Fatal(err)
		}
		n, err := f.Write([]byte("abcdefgh"))
		f.Close()
		data, _ := os.ReadFile(path)
		if (err != nil) != tc.fail || string(data) != tc.want || (tc.fail && n != len(tc.want)) {
			t.Fatalf("%v at byte %d: wrote %d, %v; on disk %q, want %q", tc.rule.Op, tc.rule.Offset, n, err, data, tc.want)
		}
	}
}

func TestNodeHookCrashWindow(t *testing.T) {
	g, err := rote.NewGroup(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := rote.DefaultRetryPolicy()
	p.Timeout = 200 * time.Millisecond
	p.Retries = 0
	g.SetRetryPolicy(p)

	// Crash nodes 0 and 1 (> f = 1) for their first operations: the quorum
	// is unreachable, so the increment must fail fast. After the window the
	// same increment value re-broadcasts and succeeds.
	in := Scenario{Rules: []Rule{
		CrashNode(0, 0, 1),
		CrashNode(1, 0, 1),
	}}.Build()
	in.AttachGroup(g)

	if _, err := g.Increment("c"); !errors.Is(err, rote.ErrNoQuorum) {
		t.Fatalf("increment under crashed quorum: %v, want ErrNoQuorum", err)
	}
	v, err := g.Increment("c")
	if err != nil {
		t.Fatalf("increment after recovery: %v", err)
	}
	if v != 2 {
		t.Fatalf("counter = %d, want 2", v)
	}
	if got, _ := g.Read("c"); got != 2 {
		t.Fatalf("read = %d, want 2", got)
	}
}

func TestNodeHookByzantineTolerated(t *testing.T) {
	g, err := rote.NewGroup(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One persistently byzantine node is within the f=1 budget: its badly
	// MACed replies are filtered and the quorum still forms.
	in := Scenario{Rules: []Rule{ByzantineNode(2, 0, 1<<30)}}.Build()
	in.AttachGroup(g)
	for i := 1; i <= 3; i++ {
		v, err := g.Increment("c")
		if err != nil {
			t.Fatalf("increment %d: %v", i, err)
		}
		if v != uint64(i) {
			t.Fatalf("counter = %d, want %d", v, i)
		}
	}
}
