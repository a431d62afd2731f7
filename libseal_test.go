package libseal

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"libseal/internal/httpparse"
	"libseal/internal/netsim"
	"libseal/internal/rote"
	"libseal/internal/services/apache"
	"libseal/internal/services/gitserver"
	"libseal/internal/testutil"
)

// TestPublicAPIEndToEnd drives the whole system through the re-exported
// public surface only: enclave launch, bridge, LibSEAL construction, a Git
// service behind the enclave TLS library, attack detection, persistent
// logging and out-of-band verification.
func TestPublicAPIEndToEnd(t *testing.T) {
	dir := t.TempDir()

	platform := NewPlatform()
	encl, err := platform.Launch(EnclaveConfig{Code: []byte("public-api-test"), MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	bridge, err := NewBridge(encl, BridgeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer bridge.Close()

	certs, err := testutil.NewCertEnv("svc")
	if err != nil {
		t.Fatal(err)
	}
	group, err := NewCounterGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	var seenViolations []string
	seal, err := Open(bridge,
		WithTLS(TLSConfig{Cert: certs.Cert, Key: certs.Key, Opts: AllOptimizations()}),
		WithModule(GitModule()),
		WithAuditDisk(dir),
		WithProtector(group),
		WithChecks(10, 0, time.Millisecond),
		WithViolationHandler(func(name string, _ *QueryResult) { seenViolations = append(seenViolations, name) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer seal.Close()

	git := gitserver.NewServer()
	network := netsim.NewNetwork()
	listener, err := network.Listen("svc:443")
	if err != nil {
		t.Fatal(err)
	}
	server, err := apache.New(apache.Config{
		Terminator: seal.TLS().Terminator(),
		Handler:    git.Handler(),
		KeepAlive:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(listener)
	defer server.Close()

	raw, err := network.Dial("svc:443")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := ConnectTLS(raw, certs.ClientConfig("svc"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	do := func(req *httpparse.Request) *httpparse.Response {
		t.Helper()
		if _, err := conn.Write(req.Bytes()); err != nil {
			t.Fatal(err)
		}
		rsp, err := httpparse.ReadResponse(br)
		if err != nil {
			t.Fatal(err)
		}
		return rsp
	}

	do(httpparse.NewRequest("POST", "/git/x/git-receive-pack", []byte("create main c1")))
	do(httpparse.NewRequest("POST", "/git/x/git-receive-pack", []byte("update main c2")))
	git.InjectRollback("x", "main", "c1")
	do(httpparse.NewRequest("GET", "/git/x/info/refs", nil))

	req := httpparse.NewRequest("GET", "/git/x/info/refs", nil)
	req.Header.Set(CheckHeader, "1")
	rsp := do(req)
	if got := rsp.Header.Get(CheckResultHeader); !strings.Contains(got, "git-soundness") {
		t.Fatalf("%s = %q", CheckResultHeader, got)
	}
	if len(seenViolations) == 0 || seenViolations[0] != "git-soundness" {
		t.Fatalf("OnViolation = %v", seenViolations)
	}
	if len(seal.Violations()) == 0 {
		t.Fatal("Violations empty")
	}

	// Out-of-band verification of the persisted evidence.
	conn.Close()
	server.Close()
	seal.Close()
	rep, err := Verify(dir, VerifyStreamOptions{VerifyOptions: VerifyOptions{
		Pub:       encl.PublicKey(),
		Protector: group,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalEntries == 0 {
		t.Fatal("no verified entries")
	}

	// A record that fails its own check is located: the facade passes the
	// *VerifyError through. The file's last byte is the last signature's S.
	path := filepath.Join(dir, "git-shard0.lseal")
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0x01
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Verify(dir, VerifyStreamOptions{VerifyOptions: VerifyOptions{Pub: encl.PublicKey()}})
	var located *VerifyError
	if !errors.As(err, &located) || !errors.Is(err, ErrTampered) {
		t.Fatalf("Verify of a damaged signature record: %v, want a *VerifyError wrapping ErrTampered", err)
	}
	if located.Batch != rep.TotalBatches-1 || located.Record != -1 || located.Offset <= 0 || located.Offset >= int64(len(img)) {
		t.Fatalf("located %+v, want the last of %d signature records", located, rep.TotalBatches)
	}
}

func TestCostModelExports(t *testing.T) {
	def := DefaultCostModel()
	if def.TransitionCycles != 8400 || def.AsyncCallCycles != 600 {
		t.Fatalf("DefaultCostModel = %+v", def)
	}
	zero := ZeroCostModel()
	if zero.TransitionCycles != 0 {
		t.Fatalf("ZeroCostModel charges transitions: %+v", zero)
	}
	if d := def.TransitionCost(1); d <= 0 {
		t.Fatal("transition cost not positive")
	}
}

func TestModuleConstructors(t *testing.T) {
	for _, m := range []Module{GitModule(), OwnCloudModule(), DropboxModule()} {
		if m.Name() == "" || m.Schema() == "" || len(m.Invariants()) == 0 || len(m.TrimQueries()) == 0 {
			t.Fatalf("module %q incomplete", m.Name())
		}
		for _, inv := range m.Invariants() {
			if inv.Kind != "soundness" && inv.Kind != "completeness" {
				t.Fatalf("%s invariant %s has kind %q", m.Name(), inv.Name, inv.Kind)
			}
		}
	}
}

func TestModuleByName(t *testing.T) {
	names := ModuleNames()
	want := []string{"dropbox", "git", "messaging", "owncloud"}
	if len(names) != len(want) {
		t.Fatalf("ModuleNames = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("ModuleNames = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		m, err := ModuleByName(n)
		if err != nil {
			t.Fatalf("ModuleByName(%q): %v", n, err)
		}
		if m.Name() == "" || m.Schema() == "" {
			t.Fatalf("module %q incomplete", n)
		}
	}
	if _, err := ModuleByName("nope"); !errors.Is(err, ErrUnknownModule) {
		t.Fatalf("unknown module error = %v, want ErrUnknownModule", err)
	}
}

// TestNewCounterGroup: a fresh group counts under the default policy and
// under one set with SetRetryPolicy.
func TestNewCounterGroup(t *testing.T) {
	group, err := NewCounterGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := group.Increment("c"); err != nil || v != 1 {
		t.Fatalf("Increment = %d, %v", v, err)
	}
	policy := rote.DefaultRetryPolicy()
	policy.Retries = 0
	policy.Timeout = 50 * time.Millisecond
	group.SetRetryPolicy(policy)
	if v, err := group.Increment("c"); err != nil || v != 2 {
		t.Fatalf("Increment under a tuned policy = %d, %v", v, err)
	}
}

func TestMetricsSurface(t *testing.T) {
	ResetMetrics()
	group, err := NewCounterGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	events := 0
	RegisterTrace("test-surface", func(event string, d time.Duration) {
		if event == "rote.increment" {
			mu.Lock()
			events++
			mu.Unlock()
		}
	})
	defer UnregisterTrace("test-surface")
	if _, err := group.Increment("c"); err != nil {
		t.Fatal(err)
	}
	snap := MetricsSnapshot()
	byName := make(map[string]Metric, len(snap))
	for _, m := range snap {
		byName[m.Name] = m
	}
	if m := byName["rote.increments"]; m.Value != 1 {
		t.Fatalf("rote.increments = %+v", m)
	}
	if m := byName["rote.increment.latency"]; m.Value != 1 || m.P50 <= 0 {
		t.Fatalf("rote.increment.latency = %+v", m)
	}
	mu.Lock()
	got := events
	mu.Unlock()
	if got != 1 {
		t.Fatalf("trace events = %d, want 1", got)
	}

	// SetMetricsEnabled(false) freezes the counters.
	SetMetricsEnabled(false)
	if _, err := group.Increment("c"); err != nil {
		t.Fatal(err)
	}
	SetMetricsEnabled(true)
	if m, _ := findMetric("rote.increments"); m.Value != 1 {
		t.Fatalf("rote.increments moved while disabled: %+v", m)
	}
}

func findMetric(name string) (Metric, bool) {
	for _, m := range MetricsSnapshot() {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}
