package libseal

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"libseal/internal/core"
	"libseal/internal/httpparse"
	"libseal/internal/netsim"
	"libseal/internal/rote"
	"libseal/internal/services/apache"
	"libseal/internal/services/gitserver"
	"libseal/internal/testutil"
)

// serveGit runs the Git service behind a LibSEAL instance at "svc:443" on a
// simulated network of its own, until stop.
func serveGit(t *testing.T, seal *LibSEAL) (network *netsim.Network, git *gitserver.Server, stop func()) {
	t.Helper()
	git = gitserver.NewServer()
	network = netsim.NewNetwork()
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
	return network, git, func() { server.Close() }
}

// gitClient is one keep-alive connection to serveGit's service.
type gitClient struct {
	conn *ClientConn
	br   *bufio.Reader
}

func dialGit(network *netsim.Network, certs *testutil.CertEnv) (*gitClient, error) {
	raw, err := network.Dial("svc:443")
	if err != nil {
		return nil, err
	}
	conn, err := ConnectTLS(raw, certs.ClientConfig("svc"))
	if err != nil {
		return nil, err
	}
	return &gitClient{conn: conn, br: bufio.NewReader(conn)}, nil
}

// do sends one request and waits for its response.
func (c *gitClient) do(req *httpparse.Request) error {
	if _, err := c.conn.Write(req.Bytes()); err != nil {
		return err
	}
	_, err := httpparse.ReadResponse(c.br)
	return err
}

// driveGitWorkload runs a short Git session against a LibSEAL instance:
// two pushes, an injected rollback, a fetch, and an in-band check. It
// returns the violation names the instance reported.
func driveGitWorkload(t *testing.T, seal *LibSEAL, certs *testutil.CertEnv) []string {
	t.Helper()
	network, git, stop := serveGit(t, seal)
	defer stop()
	client, err := dialGit(network, certs)
	if err != nil {
		t.Fatal(err)
	}
	defer client.conn.Close()
	do := func(req *httpparse.Request) {
		t.Helper()
		if err := client.do(req); err != nil {
			t.Fatal(err)
		}
	}
	do(httpparse.NewRequest("POST", "/git/x/git-receive-pack", []byte("create main c1")))
	do(httpparse.NewRequest("POST", "/git/x/git-receive-pack", []byte("update main c2")))
	git.InjectRollback("x", "main", "c1")
	do(httpparse.NewRequest("GET", "/git/x/info/refs", nil))
	req := httpparse.NewRequest("GET", "/git/x/info/refs", nil)
	req.Header.Set(CheckHeader, "1")
	do(req)

	var names []string
	for _, v := range seal.Violations() {
		names = append(names, v.Invariant)
	}
	return names
}

// TestOpenOptionsEndToEnd builds an instance through the functional-options
// constructor with the full plumbing — sharded disk audit, a counter group
// with a retry policy behind a circuit breaker, admission control, batching,
// checks, violation handler — drives a real workload, and verifies the
// sharded set through the unified Verify entry point.
func TestOpenOptionsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	platform := NewPlatform()
	encl, err := platform.Launch(EnclaveConfig{Code: []byte("open-options-test"), MaxThreads: 8})
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

	policy := rote.DefaultRetryPolicy()
	policy.Timeout = 250 * time.Millisecond
	group.SetRetryPolicy(policy)
	breaker := NewBreakerProtector("audit.breaker", group, BreakerConfig{Threshold: 5, Cooldown: time.Second})
	var handled []string
	seal, err := Open(bridge,
		WithModule(GitModule()),
		WithTLS(TLSConfig{Cert: certs.Cert, Key: certs.Key, Opts: AllOptimizations()}),
		WithAuditDisk(dir),
		WithAuditShards(2),
		WithManifestInterval(50*time.Millisecond),
		WithProtector(breaker),
		WithAdmission(256, 500*time.Millisecond),
		WithBatching(MeasuredBatchMax, MeasuredBatchDelay),
		WithAnchorTimeout(2*time.Second),
		WithChecks(10, 0, time.Millisecond),
		WithViolationHandler(func(name string, _ *QueryResult) { handled = append(handled, name) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer seal.Close()

	violations := driveGitWorkload(t, seal, certs)
	if len(violations) == 0 || violations[0] != "git-soundness" {
		t.Fatalf("violations = %v", violations)
	}
	if len(handled) == 0 || handled[0] != "git-soundness" {
		t.Fatalf("WithViolationHandler saw %v", handled)
	}
	if got := seal.Log().Shards(); got != 2 {
		t.Fatalf("shards = %d, want 2", got)
	}
	if err := seal.Close(); err != nil {
		t.Fatal(err)
	}

	// The unified entry point verifies the set in the directory.
	res, err := Verify(dir, VerifyStreamOptions{
		VerifyOptions: VerifyOptions{Pub: encl.PublicKey(), Protector: group, Name: "git"},
	})
	if err != nil {
		t.Fatalf("Verify(dir): %v", err)
	}
	if len(res.Shards) != 2 {
		t.Fatalf("shards=%d, want 2", len(res.Shards))
	}
	if res.TotalEntries == 0 || res.Manifests == 0 {
		t.Fatalf("entries=%d manifests=%d", res.TotalEntries, res.Manifests)
	}
}

// TestOpenMatchesNew checks the facade contract: Open assembles the same
// instance core.New does from an equivalent core.Config, observed through
// identical behaviour on the same workload and identically-verifiable logs.
func TestOpenMatchesNew(t *testing.T) {
	type build func(t *testing.T, bridge *Bridge, certs *testutil.CertEnv, dir string, group *CounterGroup) (*LibSEAL, error)
	builds := map[string]build{
		"new": func(t *testing.T, bridge *Bridge, certs *testutil.CertEnv, dir string, group *CounterGroup) (*LibSEAL, error) {
			return core.New(bridge, core.Config{
				TLS:              TLSConfig{Cert: certs.Cert, Key: certs.Key, Opts: AllOptimizations()},
				Module:           GitModule(),
				AuditMode:        AuditDisk,
				AuditDir:         dir,
				Protector:        group,
				CheckEvery:       10,
				CheckMinInterval: time.Millisecond,
			})
		},
		"open": func(t *testing.T, bridge *Bridge, certs *testutil.CertEnv, dir string, group *CounterGroup) (*LibSEAL, error) {
			return Open(bridge,
				WithModule(GitModule()),
				WithTLS(TLSConfig{Cert: certs.Cert, Key: certs.Key, Opts: AllOptimizations()}),
				WithAuditDisk(dir),
				WithProtector(group),
				WithChecks(10, 0, time.Millisecond),
			)
		},
	}
	results := map[string]*Report{}
	for name, mk := range builds {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			platform := NewPlatform()
			encl, err := platform.Launch(EnclaveConfig{Code: []byte("facade-equiv"), MaxThreads: 8})
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
			seal, err := mk(t, bridge, certs, dir, group)
			if err != nil {
				t.Fatal(err)
			}
			violations := driveGitWorkload(t, seal, certs)
			if len(violations) == 0 || violations[0] != "git-soundness" {
				t.Fatalf("violations = %v", violations)
			}
			if err := seal.Close(); err != nil {
				t.Fatal(err)
			}
			res, err := Verify(dir, VerifyStreamOptions{
				VerifyOptions: VerifyOptions{Pub: encl.PublicKey(), Protector: group, Name: "git"},
			})
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			results[name] = res
		})
	}
	a, b := results["new"], results["open"]
	if a == nil || b == nil {
		t.Fatal("missing results")
	}
	if a.TotalEntries != b.TotalEntries || len(a.Shards) != len(b.Shards) {
		t.Fatalf("diverged: new %d entries (%d shards), open %d entries (%d shards)",
			a.TotalEntries, len(a.Shards), b.TotalEntries, len(b.Shards))
	}
	for table, n := range a.Tables {
		if b.Tables[table] != n {
			t.Fatalf("table %s: new %d, open %d", table, n, b.Tables[table])
		}
	}
}

// TestOpenMinimalOptions checks that a disk Open needs a protector and
// nothing else, and that a memory-only Open needs nothing beyond module and
// TLS identity.
func TestOpenMinimalOptions(t *testing.T) {
	platform := NewPlatform()
	encl, err := platform.Launch(EnclaveConfig{Code: []byte("open-faults"), MaxThreads: 8})
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
	tls := TLSConfig{Cert: certs.Cert, Key: certs.Key}
	seal, err := Open(bridge,
		WithModule(GitModule()),
		WithTLS(tls),
		WithAuditDisk(t.TempDir()),
		WithProtector(group),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := seal.Close(); err != nil {
		t.Fatal(err)
	}

	bridge2, err := NewBridge(encl, BridgeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer bridge2.Close()
	mem, err := Open(bridge2, WithModule(GitModule()), WithTLS(tls))
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
}

// countingProtector is a RollbackProtector stub that records use, so tests
// can observe WHICH protector Open actually installed.
type countingProtector struct {
	counter atomic.Uint64
}

func (p *countingProtector) Increment(name string) (uint64, error) {
	return p.counter.Add(1), nil
}

func (p *countingProtector) Read(name string) (uint64, error) {
	return p.counter.Load(), nil
}

// TestOpenLastProtectorWins pins the override internal/bench relies on when
// a deployment's own options replace the counter group it installed: of two
// WithProtector options the later one anchors the log, and the earlier one
// is never used.
func TestOpenLastProtectorWins(t *testing.T) {
	certs, err := testutil.NewCertEnv("svc")
	if err != nil {
		t.Fatal(err)
	}
	for _, stubLast := range []bool{false, true} {
		encl, err := NewPlatform().Launch(EnclaveConfig{Code: []byte("open-order"), MaxThreads: 8})
		if err != nil {
			t.Fatal(err)
		}
		bridge, err := NewBridge(encl, BridgeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer bridge.Close()
		group, err := NewCounterGroup(1)
		if err != nil {
			t.Fatal(err)
		}
		stub := &countingProtector{}
		protectors := []Option{WithProtector(stub), WithProtector(group)}
		if stubLast {
			protectors[0], protectors[1] = protectors[1], protectors[0]
		}
		seal, err := Open(bridge, append([]Option{
			WithModule(GitModule()),
			WithTLS(TLSConfig{Cert: certs.Cert, Key: certs.Key}),
			WithAuditDisk(t.TempDir()),
		}, protectors...)...)
		if err != nil {
			t.Fatal(err)
		}
		driveGitWorkload(t, seal, certs)
		if err := seal.Close(); err != nil {
			t.Fatal(err)
		}
		n, err := group.Read("git-shard0")
		if err != nil {
			t.Fatal(err)
		}
		if stubUsed, groupUsed := stub.counter.Load() > 0, n > 0; stubUsed != stubLast || groupUsed == stubLast {
			t.Fatalf("stub last = %v: stub used %v, group used %v", stubLast, stubUsed, groupUsed)
		}
	}
}

// TestModuleNamesSorted pins the documented contract that ModuleNames
// returns sorted names (the facade promises a stable CLI-friendly order).
func TestModuleNamesSorted(t *testing.T) {
	names := ModuleNames()
	if len(names) == 0 {
		t.Fatal("no modules registered")
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("ModuleNames not sorted: %v", names)
	}
	// Stability across calls (fresh slice each time, same order).
	again := ModuleNames()
	for i := range names {
		if names[i] != again[i] {
			t.Fatalf("ModuleNames unstable: %v vs %v", names, again)
		}
	}
}

// TestBatchingSharesSignatureRecords drives connections appending
// concurrently under the group-commit setting libseal-server runs: their
// entries must share signature records, so the verified log has fewer batches
// than entries. Without WithBatching every entry is signed on its own. Four
// connections, because a connection has one append outstanding at a time and
// an idle lane commits at once: two closed-loop connections take turns — one
// stages while the other's commit is in flight and commits alone when it ends
// — and share a record only by luck; with a third, two wait behind the one in
// flight and commit together.
func TestBatchingSharesSignatureRecords(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    []Option
		batched bool
	}{
		{"server setting", []Option{WithBatching(MeasuredBatchMax, MeasuredBatchDelay)}, true},
		{"no batching", nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			encl, err := NewPlatform().Launch(EnclaveConfig{Code: []byte("batching-test"), MaxThreads: 8})
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
			// A counter round trip of a millisecond, as on a real quorum: long
			// enough that the other connection stages while a commit is in flight.
			group, err := rote.NewGroup(1, 500*time.Microsecond)
			if err != nil {
				t.Fatal(err)
			}
			seal, err := Open(bridge, append([]Option{
				WithModule(GitModule()),
				WithTLS(TLSConfig{Cert: certs.Cert, Key: certs.Key, Opts: AllOptimizations()}),
				WithAuditDisk(dir),
				WithProtector(group),
			}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer seal.Close()
			network, _, stop := serveGit(t, seal)
			defer stop()

			const conns, pushes = 4, 20
			var clients sync.WaitGroup
			for c := 0; c < conns; c++ {
				clients.Add(1)
				go func(c int) {
					defer clients.Done()
					client, err := dialGit(network, certs)
					if err != nil {
						t.Error(err)
						return
					}
					defer client.conn.Close()
					for i := 0; i < pushes; i++ {
						push := httpparse.NewRequest("POST", fmt.Sprintf("/git/repo%d/git-receive-pack", c), []byte(fmt.Sprintf("create b%d c%d", i, i)))
						if err := client.do(push); err != nil {
							t.Error(err)
							return
						}
					}
				}(c)
			}
			clients.Wait()
			if err := seal.Close(); err != nil {
				t.Fatal(err)
			}
			rep, err := Verify(dir, VerifyStreamOptions{
				VerifyOptions: VerifyOptions{Pub: encl.PublicKey(), Protector: group, Name: "git"},
			})
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if rep.TotalEntries < conns*pushes {
				t.Fatalf("%d entries verified, want at least %d", rep.TotalEntries, conns*pushes)
			}
			t.Logf("%d entries in %d batches", rep.TotalEntries, rep.TotalBatches)
			if shared := rep.TotalBatches < rep.TotalEntries; shared != tc.batched {
				t.Fatalf("%d entries in %d batches; signature records shared = %v, want %v", rep.TotalEntries, rep.TotalBatches, shared, tc.batched)
			}
		})
	}
}

// TestOpenSealedLog writes a sealed disk log through Open with real Git
// traffic. The shard files hold none of a logged value's plaintext (an
// unsealed log of the same traffic does, so the probe means something);
// Open with WithRecovery on the same platform recovers every entry; and a
// verifier without the enclave's Unseal does not report the log clean.
func TestOpenSealedLog(t *testing.T) {
	const repo = "sealed-probe-repository"
	platform := NewPlatform()
	certs, err := testutil.NewCertEnv("svc")
	if err != nil {
		t.Fatal(err)
	}
	group, err := NewCounterGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	open := func(dir string, extra ...Option) (*LibSEAL, *Enclave) {
		t.Helper()
		encl, err := platform.Launch(EnclaveConfig{Code: []byte("sealed-log-test"), MaxThreads: 8})
		if err != nil {
			t.Fatal(err)
		}
		bridge, err := NewBridge(encl, BridgeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(bridge.Close)
		seal, err := Open(bridge, append([]Option{
			WithModule(GitModule()),
			WithTLS(TLSConfig{Cert: certs.Cert, Key: certs.Key, Opts: AllOptimizations()}),
			WithAuditDisk(dir),
			WithProtector(group),
		}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return seal, encl
	}
	// write pushes to the probe repository and closes the instance; it
	// returns the entries logged and the shard files' bytes.
	write := func(seal *LibSEAL, dir string) (uint64, []byte) {
		t.Helper()
		network, _, stop := serveGit(t, seal)
		client, err := dialGit(network, certs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			body := []byte(fmt.Sprintf("update main c%d", i))
			if err := client.do(httpparse.NewRequest("POST", "/git/"+repo+"/git-receive-pack", body)); err != nil {
				t.Fatal(err)
			}
		}
		client.conn.Close()
		stop()
		if err := seal.Close(); err != nil {
			t.Fatal(err)
		}
		files, _ := filepath.Glob(filepath.Join(dir, "*.lseal"))
		var img []byte
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			img = append(img, b...)
		}
		return seal.Log().Seq(), img
	}

	plainDir := t.TempDir()
	plain, _ := open(plainDir)
	if _, img := write(plain, plainDir); !bytes.Contains(img, []byte(repo)) {
		t.Fatal("the unsealed control log does not hold the repository name")
	}

	dir := t.TempDir()
	seal, encl := open(dir, WithSealedLog())
	entries, img := write(seal, dir)
	if entries == 0 {
		t.Fatal("nothing logged")
	}
	if bytes.Contains(img, []byte(repo)) {
		t.Fatal("a sealed log's shard files hold the repository name in plaintext")
	}

	rec, _ := open(dir, WithSealedLog(), WithRecovery(0))
	if got := rec.Log().Seq(); got != entries {
		t.Fatalf("recovered %d entries, the sealed log held %d", got, entries)
	}
	res, err := rec.Log().Query("SELECT COUNT(*) FROM updates WHERE repo = ?", repo)
	if err != nil || res.Rows[0][0].Int64() != int64(entries) {
		t.Fatalf("recovered updates of %s: %v, %v; want %d", repo, res, err, entries)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	// Without the plaintext there is no entry to check: the walk refuses it.
	_, err = Verify(dir, VerifyStreamOptions{VerifyOptions: VerifyOptions{Pub: encl.PublicKey(), Protector: group}})
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("Verify of a sealed log without Unseal: %v, want ErrTampered", err)
	}
}
