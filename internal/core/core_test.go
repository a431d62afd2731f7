package core

import (
	"bufio"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/audit"
	"libseal/internal/enclave"
	"libseal/internal/httpparse"
	"libseal/internal/netsim"
	"libseal/internal/pki"
	"libseal/internal/sqldb"
	"libseal/internal/ssm"
	"libseal/internal/ssm/gitssm"
	"libseal/internal/tlsterm"
	"libseal/internal/vfs"
)

// slowRenameFS stretches the trim rewrite's rename (performed while core
// holds logMu) past Go's 1ms mutex starvation threshold, forcing handoff
// ordering on logMu so concurrent stagers and trimmers interleave in FIFO
// order rather than the barging fast path.
type slowRenameFS struct{ vfs.OS }

func (s slowRenameFS) Rename(oldpath, newpath string) error {
	time.Sleep(2 * time.Millisecond)
	return s.OS.Rename(oldpath, newpath)
}

type coreEnv struct {
	ca     *pki.CA
	pool   *pki.Pool
	cert   *pki.Certificate
	key    *ecdsa.PrivateKey
	encl   *enclave.Enclave
	bridge *asyncall.Bridge
}

func newCoreEnv(t *testing.T) *coreEnv {
	t.Helper()
	ca, _ := pki.NewCA("ca")
	key, _ := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	cert, _ := ca.Issue("svc", &key.PublicKey, nil)
	p := enclave.NewPlatform()
	encl, err := p.Launch(enclave.Config{Code: []byte("libseal-core"), MaxThreads: 8, Cost: enclave.ZeroCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	bridge, err := asyncall.New(encl, asyncall.Config{Mode: asyncall.ModeSync})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bridge.Close)
	return &coreEnv{ca: ca, pool: pki.NewPool(ca), cert: cert, key: key, encl: encl, bridge: bridge}
}

// gitBackend is a trivial in-test Git service: branches per repo, with
// switchable misbehaviour. mu guards the maps: connections sharing a backend
// serve from their own goroutines while the test flips the misbehaviour.
type gitBackend struct {
	mu         sync.Mutex
	refs       map[string]map[string]string // repo -> branch -> cid
	rollback   map[string]string            // branch -> stale cid to advertise
	hideRef    map[string]bool              // branch -> omit from advertisements
	teleportTo map[string]string            // branch -> foreign cid
}

func newGitBackend() *gitBackend {
	return &gitBackend{
		refs:       map[string]map[string]string{},
		rollback:   map[string]string{},
		hideRef:    map[string]bool{},
		teleportTo: map[string]string{},
	}
}

func (g *gitBackend) setRollback(branch, staleCid string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.rollback[branch] = staleCid
}

func (g *gitBackend) hide(branch string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hideRef[branch] = true
}

func (g *gitBackend) handle(req *httpparse.Request) *httpparse.Response {
	g.mu.Lock()
	defer g.mu.Unlock()
	parts := strings.Split(strings.TrimPrefix(req.PathOnly(), "/"), "/")
	if len(parts) < 3 || parts[0] != "git" {
		return httpparse.NewResponse(404, nil)
	}
	repo := parts[1]
	switch {
	case req.Method == "POST" && parts[2] == "git-receive-pack":
		if g.refs[repo] == nil {
			g.refs[repo] = map[string]string{}
		}
		for _, line := range strings.Split(string(req.Body), "\n") {
			f := strings.Fields(line)
			if len(f) != 3 {
				continue
			}
			switch f[0] {
			case "create", "update":
				g.refs[repo][f[1]] = f[2]
			case "delete":
				delete(g.refs[repo], f[1])
			}
		}
		return httpparse.NewResponse(200, []byte("ok"))
	case req.Method == "GET" && parts[2] == "info":
		var body strings.Builder
		for branch, cid := range g.refs[repo] {
			if g.hideRef[branch] {
				continue
			}
			if stale, ok := g.rollback[branch]; ok {
				cid = stale
			}
			if foreign, ok := g.teleportTo[branch]; ok {
				cid = foreign
			}
			fmt.Fprintf(&body, "ref %s %s\n", branch, cid)
		}
		return httpparse.NewResponse(200, []byte(body.String()))
	}
	return httpparse.NewResponse(404, nil)
}

// serveConn runs an HTTP-over-LibSEAL loop for one connection.
func serveConn(t *testing.T, ls *LibSEAL, conn net.Conn, backend *gitBackend) {
	t.Helper()
	go func() {
		ssl := ls.TLS().NewSSL(conn)
		if err := ssl.Accept(); err != nil {
			return
		}
		defer ssl.Close()
		br := bufio.NewReader(ssl)
		for {
			req, err := httpparse.ReadRequest(br)
			if err != nil {
				return
			}
			rsp := backend.handle(req)
			if _, err := ssl.Write(rsp.Bytes()); err != nil {
				return
			}
		}
	}()
}

// gitClient issues requests over one secured connection.
type gitClient struct {
	conn *tlsterm.Conn
	br   *bufio.Reader
}

func dialGit(t *testing.T, env *coreEnv, ls *LibSEAL, backend *gitBackend) *gitClient {
	t.Helper()
	cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
	serveConn(t, ls, sConn, backend)
	conn, err := tlsterm.Connect(cConn, &tlsterm.ClientConfig{Roots: env.pool, ServerName: "svc"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &gitClient{conn: conn, br: bufio.NewReader(conn)}
}

func (c *gitClient) do(t *testing.T, req *httpparse.Request) *httpparse.Response {
	t.Helper()
	if _, err := c.conn.Write(req.Bytes()); err != nil {
		t.Fatal(err)
	}
	rsp, err := httpparse.ReadResponse(c.br)
	if err != nil {
		t.Fatal(err)
	}
	return rsp
}

func (c *gitClient) push(t *testing.T, repo string, lines ...string) {
	rsp := c.do(t, httpparse.NewRequest("POST", "/git/"+repo+"/git-receive-pack", []byte(strings.Join(lines, "\n"))))
	if rsp.Status != 200 {
		t.Fatalf("push status %d", rsp.Status)
	}
}

func (c *gitClient) fetch(t *testing.T, repo string, check bool) *httpparse.Response {
	req := httpparse.NewRequest("GET", "/git/"+repo+"/info/refs?service=git-upload-pack", nil)
	if check {
		req.Header.Set(CheckHeader, "1")
	}
	return c.do(t, req)
}

func newGitLibSEAL(t *testing.T, env *coreEnv, cfg Config) *LibSEAL {
	t.Helper()
	cfg.TLS.Cert = env.cert
	cfg.TLS.Key = env.key
	cfg.TLS.Opts = tlsterm.AllOptimizations()
	ls, err := New(env.bridge, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ls.Close() })
	return ls
}

func TestEndToEndCleanWorkload(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{Module: gitssm.New(), AuditMode: audit.ModeMemory})
	backend := newGitBackend()
	c := dialGit(t, env, ls, backend)

	c.push(t, "repo", "create main c1")
	c.push(t, "repo", "update main c2")
	rsp := c.fetch(t, "repo", false)
	if !strings.Contains(string(rsp.Body), "main c2") {
		t.Fatalf("fetch body = %q", rsp.Body)
	}

	if result, err := ls.CheckNow(); err != nil || result != "ok" {
		t.Fatalf("CheckNow = %q, %v", result, err)
	}
	st := ls.StatsSnapshot()
	if st.Pairs != 3 || st.Tuples != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// The audit log contains what flowed over the wire.
	res, err := ls.Log().Query("SELECT COUNT(*) FROM updates")
	if err != nil || res.Rows[0][0].Int64() != 2 {
		t.Fatalf("updates count: %v %v", res, err)
	}
}

func TestEndToEndDetectsRollback(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{Module: gitssm.New(), AuditMode: audit.ModeMemory})
	backend := newGitBackend()
	c := dialGit(t, env, ls, backend)

	c.push(t, "repo", "create main c1")
	c.push(t, "repo", "update main c2")
	backend.setRollback("main", "c1") // service misbehaves
	c.fetch(t, "repo", false)

	result, err := ls.CheckNow()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(result, "git-soundness") {
		t.Fatalf("result = %q, want soundness violation", result)
	}
	v := ls.Violations()
	if len(v) == 0 || v[0].Invariant != "git-soundness" {
		t.Fatalf("violations = %+v", v)
	}
}

func TestEndToEndDetectsReferenceDeletion(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{Module: gitssm.New(), AuditMode: audit.ModeMemory})
	backend := newGitBackend()
	c := dialGit(t, env, ls, backend)

	c.push(t, "repo", "create main c1")
	c.push(t, "repo", "create dev d1")
	backend.hide("dev")
	c.fetch(t, "repo", false)

	result, _ := ls.CheckNow()
	if !strings.Contains(result, "git-completeness") {
		t.Fatalf("result = %q, want completeness violation", result)
	}
}

func TestCheckHeaderInBandResult(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{Module: gitssm.New(), AuditMode: audit.ModeMemory})
	backend := newGitBackend()
	c := dialGit(t, env, ls, backend)

	c.push(t, "repo", "create main c1")
	rsp := c.fetch(t, "repo", true)
	if got := rsp.Header.Get(CheckResultHeader); got != "ok" {
		t.Fatalf("%s = %q, want ok", CheckResultHeader, got)
	}

	// After an attack, the header reports the violation in-band.
	c.push(t, "repo", "update main c2")
	backend.setRollback("main", "c1")
	c.fetch(t, "repo", false) // poisoned advertisement gets logged
	rsp = c.fetch(t, "repo", true)
	if got := rsp.Header.Get(CheckResultHeader); !strings.Contains(got, "git-soundness") {
		t.Fatalf("%s = %q, want violation", CheckResultHeader, got)
	}
}

func TestCheckRateLimiting(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{
		Module:           gitssm.New(),
		AuditMode:        audit.ModeMemory,
		CheckMinInterval: time.Hour,
	})
	backend := newGitBackend()
	c := dialGit(t, env, ls, backend)
	c.push(t, "repo", "create main c1")
	rsp := c.fetch(t, "repo", true)
	if got := rsp.Header.Get(CheckResultHeader); got != "ok" {
		t.Fatalf("first check = %q", got)
	}
	rsp = c.fetch(t, "repo", true)
	if got := rsp.Header.Get(CheckResultHeader); got != "rate-limited" {
		t.Fatalf("second check = %q, want rate-limited", got)
	}
}

func TestPeriodicCheckAndTrim(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{
		Module:     gitssm.New(),
		AuditMode:  audit.ModeMemory,
		CheckEvery: 5,
	})
	backend := newGitBackend()
	c := dialGit(t, env, ls, backend)
	for i := 0; i < 12; i++ {
		c.push(t, "repo", fmt.Sprintf("update main c%d", i))
	}
	st := ls.StatsSnapshot()
	if st.Trims < 2 {
		t.Fatalf("trims = %d, want >= 2", st.Trims)
	}
	// Trimming kept only the latest update.
	n, _ := ls.Log().DB().TableRowCount("updates")
	if n > 3 {
		t.Fatalf("updates after periodic trim = %d", n)
	}
	if result, _ := ls.CheckNow(); result != "ok" {
		t.Fatalf("result = %q", result)
	}
}

func TestPersistentModeSurvivesRestart(t *testing.T) {
	env := newCoreEnv(t)
	dir := t.TempDir()
	ls := newGitLibSEAL(t, env, Config{
		Module:    gitssm.New(),
		AuditMode: audit.ModeDisk,
		AuditDir:  dir,
	})
	backend := newGitBackend()
	c := dialGit(t, env, ls, backend)
	c.push(t, "repo", "create main c1")
	ls.Close()

	// Verify the persisted log out-of-band with the enclave's public key.
	entries, err := verifyLogFile(dir+"/git-shard0.lseal", audit.VerifyOptions{Pub: env.encl.PublicKey()})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Table != "updates" {
		t.Fatalf("entries = %+v", entries)
	}
}

func TestLoggingDisabledMode(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{}) // no module: LibSEAL-process mode
	backend := newGitBackend()
	c := dialGit(t, env, ls, backend)
	c.push(t, "repo", "create main c1")
	if _, err := ls.CheckNow(); !errors.Is(err, ErrLoggingDisabled) {
		t.Fatalf("CheckNow = %v, want ErrLoggingDisabled", err)
	}
	if ls.Log() != nil {
		t.Fatal("log created despite nil module")
	}
}

func TestPipelinedRequestsPairedInOrder(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{Module: gitssm.New(), AuditMode: audit.ModeMemory})
	backend := newGitBackend()
	c := dialGit(t, env, ls, backend)

	// Send two requests back-to-back before reading any response.
	req1 := httpparse.NewRequest("POST", "/git/r/git-receive-pack", []byte("create main c1"))
	req2 := httpparse.NewRequest("POST", "/git/r/git-receive-pack", []byte("update main c2"))
	buf := append(req1.Bytes(), req2.Bytes()...)
	if _, err := c.conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := httpparse.ReadResponse(c.br); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ls.Log().Query("SELECT cid FROM updates ORDER BY time")
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("rows = %v, %v", res, err)
	}
	if res.Rows[0][0].TextVal() != "c1" || res.Rows[1][0].TextVal() != "c2" {
		t.Fatalf("pairing out of order: %v", res.Rows)
	}
}

func TestOnViolationCallback(t *testing.T) {
	env := newCoreEnv(t)
	var fired []string
	ls := newGitLibSEAL(t, env, Config{
		Module:    gitssm.New(),
		AuditMode: audit.ModeMemory,
		OnViolation: func(name string, _ *sqldb.Result) {
			fired = append(fired, name)
		},
	})
	backend := newGitBackend()
	c := dialGit(t, env, ls, backend)
	c.push(t, "repo", "create main c1")
	c.push(t, "repo", "update main c2")
	backend.setRollback("main", "c1")
	c.fetch(t, "repo", false)
	ls.CheckNow()
	if len(fired) != 1 || fired[0] != "git-soundness" {
		t.Fatalf("callback fired = %v", fired)
	}
}

func TestMultipleConnectionsShareLog(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{Module: gitssm.New(), AuditMode: audit.ModeMemory})
	backend := newGitBackend()
	c1 := dialGit(t, env, ls, backend)
	c2 := dialGit(t, env, ls, backend)
	c1.push(t, "repo", "create main c1")
	c2.push(t, "repo", "create dev d1")
	res, err := ls.Log().Query("SELECT COUNT(*) FROM updates")
	if err != nil || res.Rows[0][0].Int64() != 2 {
		t.Fatalf("shared log count: %v %v", res, err)
	}
}

func TestNonHTTPTrafficDoesNotBreakConnection(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{Module: gitssm.New(), AuditMode: audit.ModeMemory})
	cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
	// Raw echo service speaking a non-HTTP protocol through LibSEAL.
	go func() {
		ssl := ls.TLS().NewSSL(sConn)
		if err := ssl.Accept(); err != nil {
			return
		}
		defer ssl.Close()
		buf := make([]byte, 1024)
		for {
			n, err := ssl.Read(buf)
			if err != nil {
				return
			}
			if _, err := ssl.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	conn, err := tlsterm.Connect(cConn, &tlsterm.ClientConfig{Roots: env.pool, ServerName: "svc"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("BINARY\x00PROTOCOL")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := io.ReadFull(conn, buf[:15]); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverExistingAcrossRestart(t *testing.T) {
	env := newCoreEnv(t)
	dir := t.TempDir()
	backend := newGitBackend()

	// First life: log a push, then "crash" (close everything).
	ls1 := newGitLibSEAL(t, env, Config{
		Module: gitssm.New(), AuditMode: audit.ModeDisk, AuditDir: dir,
	})
	c1 := dialGit(t, env, ls1, backend)
	c1.push(t, "repo", "create main c1")
	c1.push(t, "repo", "update main c2")
	ls1.Close()

	// Second life: same enclave (same platform + keys) recovers the log.
	ls2 := newGitLibSEAL(t, env, Config{
		Module: gitssm.New(), AuditMode: audit.ModeDisk, AuditDir: dir,
		RecoverExisting: true,
	})
	res, err := ls2.Log().Query("SELECT COUNT(*) FROM updates")
	if err != nil || res.Rows[0][0].Int64() != 2 {
		t.Fatalf("recovered updates = %v, %v", res, err)
	}
	// The recovered instance keeps detecting violations with history that
	// predates the restart.
	backend.setRollback("main", "c1")
	c2 := dialGit(t, env, ls2, backend)
	c2.fetch(t, "repo", false)
	result, err := ls2.CheckNow()
	if err != nil || !strings.Contains(result, "git-soundness") {
		t.Fatalf("post-recovery detection: %q %v", result, err)
	}
}

func TestLastCheckResultLifecycle(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{Module: gitssm.New(), AuditMode: audit.ModeMemory})
	if got, err := ls.CheckNow(); err != nil || got != "ok" {
		t.Fatalf("check = %q, %v", got, err)
	}
	// TrimNow is one check+trim cycle, counted like every other: with nothing
	// to delete the trim is skipped, with a checked advertisement it runs. A
	// memory-mode log has no files, so neither compacts anything.
	if err := ls.TrimNow(); err != nil {
		t.Fatal(err)
	}
	if st := ls.StatsSnapshot(); st.Checks != 2 || st.Trims != 0 || st.TrimsSkipped != 1 || st.Compactions != 0 {
		t.Fatalf("after TrimNow on an empty log: %+v", st)
	}
	c := dialGit(t, env, ls, newGitBackend())
	c.push(t, "repo", "create main c1")
	c.fetch(t, "repo", false)
	if err := ls.TrimNow(); err != nil {
		t.Fatal(err)
	}
	if st := ls.StatsSnapshot(); st.Checks != 3 || st.Trims != 1 || st.TrimFailures != 0 || st.Compactions != 0 {
		t.Fatalf("after TrimNow: %+v", st)
	}
	if seq := ls.Log().Seq(); seq != 2 {
		t.Fatalf("chain position %d after the trim, want 2: memory mode re-sequences nothing", seq)
	}
	if n, _ := ls.Log().DB().TableRowCount("advertisements"); n != 0 {
		t.Fatalf("%d advertisements left after TrimNow", n)
	}
}

// brokenTrimMod is the Git module with a trim script that parses but cannot
// run.
type brokenTrimMod struct{ *gitssm.Module }

func (brokenTrimMod) TrimQueries() []string { return []string{"DELETE FROM no_such_table"} }

// TestTrimFailureCounted: a trim that cannot run is reported by TrimNow and
// counted as a failure, never as a trim; checks are unaffected.
func TestTrimFailureCounted(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{Module: brokenTrimMod{gitssm.New()}, AuditMode: audit.ModeMemory, CheckEvery: 1})
	c := dialGit(t, env, ls, newGitBackend())
	c.push(t, "repo", "create main c1")
	if err := ls.TrimNow(); err == nil || !strings.Contains(err.Error(), "trimming query") {
		t.Fatalf("TrimNow = %v, want the trim's error", err)
	}
	if st := ls.StatsSnapshot(); st.Checks != 2 || st.Trims != 0 || st.TrimsSkipped != 0 || st.TrimFailures != 2 {
		t.Fatalf("stats = %+v, want 2 checks and 2 failed trims", st)
	}
	if got, err := ls.CheckNow(); err != nil || got != "ok" {
		t.Fatalf("check = %q, %v", got, err)
	}
}

// sqlMod is the Git module with its invariants or trim script replaced.
type sqlMod struct {
	*gitssm.Module
	invariants []ssm.Invariant
	trims      []string
}

func (m sqlMod) Invariants() []ssm.Invariant {
	if m.invariants != nil {
		return m.invariants
	}
	return m.Module.Invariants()
}

func (m sqlMod) TrimQueries() []string {
	if m.trims != nil {
		return m.trims
	}
	return m.Module.TrimQueries()
}

// TestNewRejectsModuleSQLOutsideGrammar: a module whose SQL the engine will
// not run fails New, once, with the module, the statement and the offending
// token named — not every check ("error:<name>", the service never checked)
// or every trim from then on.
func TestNewRejectsModuleSQLOutsideGrammar(t *testing.T) {
	env := newCoreEnv(t)
	for name, c := range map[string]struct {
		mod  sqlMod
		want []string
	}{
		"invariant using LIKE": {
			sqlMod{invariants: []ssm.Invariant{{Name: "no-wip", SQL: "SELECT * FROM advertisements WHERE branch LIKE 'wip%'"}}},
			[]string{"module git", "invariant no-wip", "LIKE"},
		},
		"trim that is an UPDATE": {
			sqlMod{trims: []string{"DELETE FROM advertisements; UPDATE updates SET type = 'old'"}},
			[]string{"module git", "trimming query", "UPDATE"},
		},
		"invariant that is a DELETE": {
			sqlMod{invariants: []ssm.Invariant{{Name: "wipe", SQL: "DELETE FROM updates"}}},
			[]string{"module git", "invariant wipe", "SELECT is required"},
		},
		"trim that is a SELECT": {
			sqlMod{trims: []string{"SELECT * FROM updates"}},
			[]string{"module git", "trimming query", "DELETE is required"},
		},
		"invariant of two statements": {
			sqlMod{invariants: []ssm.Invariant{{Name: "two", SQL: "SELECT 1; SELECT 2"}}},
			[]string{"module git", "invariant two", "2 statements"},
		},
	} {
		c.mod.Module = gitssm.New()
		cfg := Config{Module: c.mod, AuditMode: audit.ModeMemory}
		cfg.TLS.Cert, cfg.TLS.Key = env.cert, env.key
		ls, err := New(env.bridge, cfg)
		if err == nil {
			ls.Close()
			t.Errorf("%s: New succeeded", name)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: New = %v, want it to name %q", name, err, w)
			}
		}
	}
}

func TestTrimNowWithoutModule(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{})
	if err := ls.TrimNow(); !errors.Is(err, ErrLoggingDisabled) {
		t.Fatalf("err = %v, want ErrLoggingDisabled", err)
	}
}

func TestInjectHeader(t *testing.T) {
	rsp := []byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	out, ok := injectHeader(rsp, "Libseal-Check-Result", "ok")
	if !ok {
		t.Fatal("injection failed")
	}
	parsed, err := httpparse.ParseResponseBytes(out)
	if err != nil || parsed.Header.Get("Libseal-Check-Result") != "ok" || string(parsed.Body) != "ok" {
		t.Fatalf("parsed = %+v, %v", parsed, err)
	}
	// Non-HTTP data is left alone.
	if _, ok := injectHeader([]byte("BINARY\x00DATA"), "X", "y"); ok {
		t.Fatal("injected into non-HTTP data")
	}
	if _, ok := injectHeader([]byte("HTTP/1.1 200 OK no-crlf"), "X", "y"); ok {
		t.Fatal("injected without CRLF")
	}
}

func TestTimeBasedPeriodicChecks(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{
		Module:        gitssm.New(),
		AuditMode:     audit.ModeMemory,
		CheckInterval: 10 * time.Millisecond,
	})
	backend := newGitBackend()
	c := dialGit(t, env, ls, backend)
	c.push(t, "repo", "create main c1")
	c.push(t, "repo", "update main c2")
	backend.setRollback("main", "c1")
	c.fetch(t, "repo", false)
	// Without any client-triggered check, the periodic checker must find
	// the violation on its own.
	deadline := time.Now().Add(3 * time.Second)
	for len(ls.Violations()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("periodic checker never detected the violation")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := ls.Violations(); v[0].Invariant != "git-soundness" {
		t.Fatalf("violations = %+v", v)
	}
	// Trimming ran too: the cycle that recorded the violation counts its trim
	// after it, so wait for the count rather than read it once.
	for ls.StatsSnapshot().Trims == 0 {
		if time.Now().After(deadline) {
			t.Fatal("periodic trimming never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Close must stop the background checker cleanly.
	ls.Close()
}

// TestPipelinedPairsConcurrentTrimNoDeadlock pins the staging lock rule: Trim
// quiesces the group-commit lane while holding the log-order lock, and the
// lane drains only once every batch leader reaches its durability wait — so a
// connection must stage all pairs of one write in a single logMu critical
// section. The regression this guards against re-acquired logMu between two
// pipelined pairs: a trim slotted into that window held logMu while waiting
// for a leader that was blocked on logMu, hanging the instance. The server
// here answers both pipelined requests with one write, so each round stages
// two pairs, while trim goroutines trim as fast as they can. The audit FS
// slows the trim rewrite's rename so each trim holds logMu past the mutex's
// 1ms starvation threshold, and two trimmers run so that while one trims,
// the stager and the other trimmer queue behind it in FIFO order — handoff
// then reliably slots a trimmer into any gap between the two stagings.
func TestPipelinedPairsConcurrentTrimNoDeadlock(t *testing.T) {
	env := newCoreEnv(t)
	dir := t.TempDir()
	ls := newGitLibSEAL(t, env, Config{
		Module:          gitssm.New(),
		AuditMode:       audit.ModeDisk,
		AuditDir:        dir,
		AuditFS:         slowRenameFS{},
		AuditBatchMax:   8,
		AuditBatchDelay: time.Millisecond,
	})
	backend := newGitBackend()

	cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
	go func() {
		ssl := ls.TLS().NewSSL(sConn)
		if err := ssl.Accept(); err != nil {
			return
		}
		defer ssl.Close()
		br := bufio.NewReader(ssl)
		for {
			req1, err := httpparse.ReadRequest(br)
			if err != nil {
				return
			}
			req2, err := httpparse.ReadRequest(br)
			if err != nil {
				return
			}
			out := append(backend.handle(req1).Bytes(), backend.handle(req2).Bytes()...)
			if _, err := ssl.Write(out); err != nil {
				return
			}
		}
	}()
	conn, err := tlsterm.Connect(cConn, &tlsterm.ClientConfig{Roots: env.pool, ServerName: "svc"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	stopTrim := make(chan struct{})
	var trimmers sync.WaitGroup
	for i := 0; i < 2; i++ {
		trimmers.Add(1)
		go func() {
			defer trimmers.Done()
			for {
				select {
				case <-stopTrim:
					return
				default:
					ls.TrimNow()
				}
			}
		}()
	}

	const rounds = 25
	done := make(chan error, 1)
	go func() {
		for r := 0; r < rounds; r++ {
			req1 := httpparse.NewRequest("POST", "/git/repo/git-receive-pack",
				[]byte(fmt.Sprintf("update a c%d", r)))
			req2 := httpparse.NewRequest("POST", "/git/repo/git-receive-pack",
				[]byte(fmt.Sprintf("update b c%d", r)))
			if _, err := conn.Write(append(req1.Bytes(), req2.Bytes()...)); err != nil {
				done <- fmt.Errorf("round %d write: %w", r, err)
				return
			}
			for i := 0; i < 2; i++ {
				if _, err := httpparse.ReadResponse(br); err != nil {
					done <- fmt.Errorf("round %d response %d: %w", r, i, err)
					return
				}
			}
		}
		done <- nil
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pipelined writes deadlocked against concurrent trims")
	}
	close(stopTrim)
	trimmers.Wait()
	if st := ls.StatsSnapshot(); st.Pairs != 2*rounds {
		t.Fatalf("pairs = %d, want %d", st.Pairs, 2*rounds)
	}
}

// TestConcurrentConnectionsBatchedDisk drives many connections in parallel
// against one disk-mode instance with group commit on: connection state is
// sharded, so parsing/pairing proceeds concurrently while pairs enter the
// commit sequence under the narrow log-order lock, and periodic check+trim
// interleaves with the batched appends. Run under -race this doubles as the
// locking regression test for the sharded design.
func TestConcurrentConnectionsBatchedDisk(t *testing.T) {
	env := newCoreEnv(t)
	dir := t.TempDir()
	ls := newGitLibSEAL(t, env, Config{
		Module:          gitssm.New(),
		AuditMode:       audit.ModeDisk,
		AuditDir:        dir,
		AuditBatchMax:   8,
		AuditBatchDelay: 2 * time.Millisecond,
		CheckEvery:      10,
	})

	const clients = 8
	const pushes = 5
	// Each client gets its own backend (the test backend is not safe for
	// concurrent use); the shared component under test is the instance.
	conns := make([]*gitClient, clients)
	for i := range conns {
		conns[i] = dialGit(t, env, ls, newGitBackend())
	}
	errs := make(chan error, clients)
	for i, c := range conns {
		go func(i int, c *gitClient) {
			for j := 0; j < pushes; j++ {
				req := httpparse.NewRequest("POST", "/git/repo/git-receive-pack",
					[]byte(fmt.Sprintf("create b%d-%d c%d", i, j, j)))
				if _, err := c.conn.Write(req.Bytes()); err != nil {
					errs <- fmt.Errorf("client %d write: %w", i, err)
					return
				}
				if _, err := httpparse.ReadResponse(c.br); err != nil {
					errs <- fmt.Errorf("client %d read: %w", i, err)
					return
				}
			}
			errs <- nil
		}(i, c)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Release the enclave threads parked in the connections' SSL_read
	// ecalls before issuing more ecalls.
	for _, c := range conns {
		c.conn.Close()
	}

	st := ls.StatsSnapshot()
	if st.Pairs != clients*pushes || st.Tuples != clients*pushes {
		t.Fatalf("stats = %+v, want %d pairs and tuples", st, clients*pushes)
	}
	if result, err := ls.CheckNow(); err != nil || result != "ok" {
		t.Fatalf("CheckNow = %q, %v", result, err)
	}
	ls.Close()
	// The batched, trimmed log still passes client-side verification.
	if _, err := verifyLogFile(dir+"/git-shard0.lseal", audit.VerifyOptions{Pub: env.encl.PublicKey()}); err != nil {
		t.Fatalf("verify batched log: %v", err)
	}
}

// verifyLogFile verifies the log file at path on the caller's goroutine and
// returns its entries.
func verifyLogFile(path string, opts audit.VerifyOptions) ([]*audit.Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := audit.VerifyReaderResult(f, opts)
	if err != nil {
		return nil, err
	}
	return res.Entries, nil
}
