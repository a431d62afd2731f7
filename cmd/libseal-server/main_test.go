package main

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"libseal"
	"libseal/internal/bench"
	"libseal/internal/httpparse"
)

// TestReadinessVerdicts reads the server's /readyz over a disk stack whose
// counter group loses 2 of its 4 nodes: not ready while the quorum is short,
// the audit probe naming the appends a degraded episode holds, and ready
// again after the nodes heal and one push carries the due probe.
func TestReadinessVerdicts(t *testing.T) {
	const (
		anchorTimeout = 100 * time.Millisecond
		limit         = 16
	)
	st, err := bench.NewGitStack(bench.StackOptions{
		Mode:     bench.ModeDisk,
		Dir:      t.TempDir(),
		Platform: libseal.NewPlatform(),
		Seal:     []libseal.Option{libseal.WithAnchorTimeout(anchorTimeout), libseal.WithDegradedLimit(limit)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mux := http.NewServeMux()
	newHealth(st.Seal, st.Group, limit).mount(mux)
	client := st.NewClient(true)
	defer client.Close()
	push := func(op, cid string) {
		t.Helper()
		rsp, err := client.Do(httpparse.NewRequest("POST", "/git/x/git-receive-pack", []byte(op+" main "+cid)))
		if err != nil || rsp.Status != 200 {
			t.Fatalf("push %s: %v (rsp %+v)", cid, err, rsp)
		}
	}

	if code, rep := getHealth(t, mux, "/readyz"); code != http.StatusOK {
		t.Fatalf("readyz on a healthy stack = %d %+v", code, rep)
	}
	nodes := st.Group.Nodes()
	nodes[0].Fail()
	nodes[1].Fail()
	code, rep := getHealth(t, mux, "/readyz")
	if code != http.StatusServiceUnavailable || rep.Checks["rote-quorum"].OK || !rep.Checks["audit"].OK {
		t.Fatalf("readyz with 2 of 4 nodes failed = %d %+v, want rote-quorum failing alone", code, rep)
	}
	if d := rep.Checks["rote-quorum"].Detail; !strings.Contains(d, "2/4 nodes healthy") {
		t.Fatalf("rote-quorum detail = %q", d)
	}

	push("create", "c1")
	_, rep = getHealth(t, mux, "/readyz")
	if a := rep.Checks["audit"]; a.OK || !strings.Contains(a.Detail, "degraded: 1 appends") {
		t.Fatalf("audit probe after a degraded push = %+v", a)
	}

	nodes[0].Recover()
	nodes[1].Recover()
	time.Sleep(anchorTimeout) // the episode's next probe falls due
	// Nothing in the server re-anchors an idle log: until an append's probe
	// closes the episode, the healed quorum leaves audit failing.
	code, rep = getHealth(t, mux, "/readyz")
	if a := rep.Checks["audit"]; code != http.StatusServiceUnavailable || a.OK || !rep.Checks["rote-quorum"].OK {
		t.Fatalf("readyz after the nodes recovered, before a push = %d %+v, want audit failing alone", code, rep)
	}
	push("update", "c2")
	code, rep = getHealth(t, mux, "/readyz")
	if code != http.StatusOK || !strings.Contains(rep.Checks["audit"].Detail, "1 degraded episodes closed") {
		t.Fatalf("readyz after the probe re-anchored = %d %+v", code, rep)
	}
}
