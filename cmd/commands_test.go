// Package cmd holds the test of the four shipped commands. It builds them
// once and execs the binaries, so their flags, exit codes, log lines and
// signal handling are what the test sees: a provider runs libseal-server,
// clients push with libseal-client, a follower runs libseal-mirror and an
// auditor runs libseal-verify.
//
// With GOCOVERDIR set the binaries are built with -cover -coverpkg=./... and
// write their coverage there (`make surface` counts it as product traffic).
package cmd

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"libseal"
	"libseal/internal/audit"
)

var bin string // directory holding the built commands

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "libseal-commands")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = dir
	args := []string{"build", "-o", dir + string(os.PathSeparator)}
	if os.Getenv("GOCOVERDIR") != "" {
		args = append(args, "-cover", "-coverpkg=./...")
	}
	build := exec.Command("go", append(args, "./cmd/libseal-server", "./cmd/libseal-client", "./cmd/libseal-mirror", "./cmd/libseal-verify")...)
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building the commands: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// openSources opens every non-test Go file of the module. The commands are
// built in a subprocess, so the test binary depends on none of their sources;
// the files a test opens are what the go command keys a cached pass on, so a
// source change must reach the test as an open. Opens before m.Run are not
// recorded, so the test calls this, not TestMain.
func openSources(t *testing.T) {
	t.Helper()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != ".." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// proc is a running command whose stderr is collected line by line.
type proc struct {
	t     *testing.T
	cmd   *exec.Cmd
	mu    sync.Mutex
	lines []string
	done  chan struct{} // closed once stderr is drained
}

func start(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	p := &proc{t: t, cmd: exec.Command(filepath.Join(bin, name), args...), done: make(chan struct{})}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			p.mu.Lock()
			p.lines = append(p.lines, sc.Text())
			p.mu.Unlock()
		}
	}()
	return p
}

// await returns the first submatch of re on a stderr line, waiting up to
// ten seconds for it.
func (p *proc) await(re *regexp.Regexp) string {
	p.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		p.mu.Lock()
		for _, l := range p.lines {
			if m := re.FindStringSubmatch(l); m != nil {
				p.mu.Unlock()
				return m[1]
			}
		}
		p.mu.Unlock()
		time.Sleep(20 * time.Millisecond)
	}
	p.t.Fatalf("%s: no line matching %q in:\n%s", filepath.Base(p.cmd.Path), re, p.log())
	return ""
}

func (p *proc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.lines, "\n")
}

// stop sends SIGTERM and returns the exit code.
func (p *proc) stop() int {
	p.t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.t.Fatal(err)
	}
	return p.wait()
}

func (p *proc) wait() int {
	p.t.Helper()
	<-p.done
	err := p.cmd.Wait()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		p.t.Fatal(err)
	}
	return p.cmd.ProcessState.ExitCode()
}

// run execs a command to completion and returns its exit code, stdout and
// stderr.
func run(t *testing.T, name string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	c := exec.Command(filepath.Join(bin, name), args...)
	c.Stdout, c.Stderr = &stdout, &stderr
	err := c.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return c.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

var (
	serveLine   = regexp.MustCompile(`git service on (\S+) \(audit: disk\)`)
	feedLine    = regexp.MustCompile(`audit replication feed on (\S+) `)
	metricsLine = regexp.MustCompile(`telemetry on http://(\S+)/metrics`)
	caughtUp    = regexp.MustCompile(`status: (connected), \d+ entries verified .* lag 0 bytes`)
	mirrorLine  = regexp.MustCompile(`status: \w+, (\d+) entries verified`)
	verifyOK    = regexp.MustCompile(`^OK: (\d+) entries`)
	located     = regexp.MustCompile(`VERIFICATION FAILED: shard \d+, byte \d+, `)
	pushReplies = regexp.MustCompile(`(?m)^HTTP/1\.1 200 OK$`)
)

// serve starts libseal-server in disk mode on dir with two shards, the
// replication feed and the telemetry endpoint, and returns it with its
// service, feed and telemetry addresses.
func serve(t *testing.T, dir string) (p *proc, addr, feed, metrics string) {
	t.Helper()
	p = start(t, "libseal-server", "-listen", "127.0.0.1:0", "-service", "git", "-mode", "disk",
		"-dir", dir, "-audit-shards", "2", "-mirror-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-check-every", "0")
	return p, p.await(serveLine), p.await(feedLine), p.await(metricsLine)
}

// get fetches an operator endpoint and returns its status and body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	rsp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	body, err := io.ReadAll(rsp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return rsp.StatusCode, string(body)
}

// push sends each git-receive-pack body on its own connection.
func push(t *testing.T, dir, addr string, bodies ...string) {
	t.Helper()
	for _, body := range bodies {
		code, out, errOut := run(t, "libseal-client", "-connect", addr, "-ca", filepath.Join(dir, "ca.pem"),
			"-method", "POST", "-path", "/git/demo/git-receive-pack", "-body", body)
		if code != 0 || !pushReplies.MatchString(out) {
			t.Fatalf("libseal-client %q: exit %d\n%s%s", body, code, out, errOut)
		}
	}
}

// verify runs libseal-verify on dir and returns its exit code, the entry
// count of an OK verdict (-1 otherwise) and its output.
func verify(t *testing.T, dir string) (int, int, string) {
	t.Helper()
	code, out, errOut := run(t, "libseal-verify", "-log", dir, "-pubkey", filepath.Join(dir, "enclave.pub"))
	n := -1
	if m := verifyOK.FindStringSubmatch(out); m != nil {
		n, _ = strconv.Atoi(m[1])
	}
	return code, n, out + errOut
}

// TestCommands is the provider's and the auditor's session end to end:
// serve, push, follow with the mirror, drain on SIGTERM, verify; then
// restart on the same directory, push again and verify both runs' entries;
// then the verifier's verdicts on a clean, a flipped and an unmanifested
// copy of the set.
func TestCommands(t *testing.T) {
	openSources(t)
	dir := t.TempDir()
	server, addr, feed, metrics := serve(t, dir)
	push(t, dir, addr, "create main c1", "update main c2", "create dev c3")

	// The operator's probes: liveness, readiness of the counter quorum, the
	// breaker and the audit log, and the metric registry.
	for path, want := range map[string]string{
		"/healthz": `"process"`,
		"/readyz":  `"rote-quorum"`,
		"/metrics": "audit.appends",
	} {
		if code, body := get(t, "http://"+metrics+path); code != http.StatusOK || !strings.Contains(body, want) {
			t.Fatalf("GET %s: %d, want 200 and %s in:\n%s", path, code, want, body)
		}
	}

	mirror := start(t, "libseal-mirror", "-addr", feed, "-service", "git",
		"-pub", filepath.Join(dir, "enclave.pub"), "-status-every", "50ms")
	mirror.await(caughtUp)
	if code := mirror.stop(); code != 0 {
		t.Fatalf("libseal-mirror exited %d on SIGTERM:\n%s", code, mirror.log())
	}
	// The status line printed on SIGTERM is the mirror's final count.
	mirrored := 0
	for _, m := range mirrorLine.FindAllStringSubmatch(mirror.log(), -1) {
		mirrored, _ = strconv.Atoi(m[1])
	}
	if mirrored == 0 {
		t.Fatalf("the mirror verified no entries:\n%s", mirror.log())
	}

	if code := server.stop(); code != 0 {
		t.Fatalf("libseal-server exited %d on SIGTERM:\n%s", code, server.log())
	}
	server.await(regexp.MustCompile(`(drained): 3 pairs`))
	code, first, out := verify(t, dir)
	if code != 0 || first != mirrored {
		t.Fatalf("libseal-verify: exit %d, %d entries; the mirror verified %d:\n%s", code, first, mirrored, out)
	}

	// The same directory again: the server resumes the set it finds.
	server, addr, _, _ = serve(t, dir)
	server.await(regexp.MustCompile(`(resuming) the audit log set`))
	push(t, dir, addr, "update dev c4")
	if code := server.stop(); code != 0 {
		t.Fatalf("restarted libseal-server exited %d on SIGTERM:\n%s", code, server.log())
	}
	code, both, out := verify(t, dir)
	if code != 0 || both <= first {
		t.Fatalf("libseal-verify after a restart: exit %d, %d entries, want more than the first run's %d:\n%s", code, both, first, out)
	}

	t.Run("verdicts", func(t *testing.T) {
		testVerdicts(t, dir, both)
	})
	t.Run("unknown service", func(t *testing.T) {
		code, _, errOut := run(t, "libseal-server", "-service", "nope", "-dir", t.TempDir())
		if code == 0 || !strings.Contains(errOut, "valid: [dropbox git messaging owncloud]") {
			t.Fatalf("libseal-server -service nope: exit %d:\n%s", code, errOut)
		}
	})
	t.Run("recovery refuses tampering", func(t *testing.T) {
		tampered := copySet(t, dir)
		shard := flip(t, tampered)
		before, _ := os.ReadFile(shard)
		p := start(t, "libseal-server", "-listen", "127.0.0.1:0", "-service", "git", "-mode", "disk",
			"-dir", tampered, "-audit-shards", "2")
		if code := p.wait(); code == 0 {
			t.Fatalf("libseal-server served a tampered log set:\n%s", p.log())
		}
		if after, _ := os.ReadFile(shard); !bytes.Equal(before, after) {
			t.Fatal("a failed recovery changed the shard file")
		}
	})
	t.Run("recovery refuses a rolled-back shard", func(t *testing.T) {
		// The server builds a fresh counter group at every start, so no
		// counter can tell; the manifest attesting the shard's entries does.
		rolled := copySet(t, dir)
		shard := filepath.Join(rolled, "git-shard0.lseal")
		if a, b := fileSize(t, shard), fileSize(t, filepath.Join(rolled, "git-shard1.lseal")); b > a {
			shard = filepath.Join(rolled, "git-shard1.lseal")
		}
		if err := os.Truncate(shard, int64(len("LIBSEALLOG3\n"))); err != nil {
			t.Fatal(err)
		}
		before := readAll(t, rolled)
		p := start(t, "libseal-server", "-listen", "127.0.0.1:0", "-service", "git", "-mode", "disk",
			"-dir", rolled, "-audit-shards", "2")
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("libseal-server serves a rolled-back log set:\n%s", p.log())
		}
		if code := p.wait(); code == 0 || !strings.Contains(p.log(), "rolled back") {
			t.Fatalf("libseal-server on a rolled-back shard: exit %d:\n%s", code, p.log())
		}
		// The TLS trust material (*.pem) is minted afresh at every start.
		for name, after := range readAll(t, rolled) {
			if before[name] != after && !strings.HasSuffix(name, ".pem") {
				t.Errorf("a failed recovery changed %s", name)
			}
		}
	})
	t.Run("SIGKILL during pushes", func(t *testing.T) {
		testKilled(t)
	})
}

// testKilled kills the server with SIGKILL while a client pushes, restarts it
// on the same directory, and requires the set to verify with every push the
// client saw acknowledged.
func testKilled(t *testing.T) {
	dir := t.TempDir()
	server, addr, _, _ := serve(t, dir)
	var mu sync.Mutex
	var acked []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			cid := fmt.Sprintf("k%04d", i)
			out, err := exec.Command(filepath.Join(bin, "libseal-client"), "-connect", addr, "-ca", filepath.Join(dir, "ca.pem"),
				"-method", "POST", "-path", "/git/demo/git-receive-pack", "-body", "create b"+cid+" "+cid).Output()
			if err != nil || !pushReplies.Match(out) {
				return // the server is gone
			}
			mu.Lock()
			acked = append(acked, cid)
			mu.Unlock()
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d pushes acknowledged in 10 s:\n%s", n, server.log())
		}
	}
	if err := server.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	server.wait()
	<-done

	server, _, _, _ = serve(t, dir)
	server.await(regexp.MustCompile(`(resuming) the audit log set`))
	if code := server.stop(); code != 0 {
		t.Fatalf("libseal-server restarted after SIGKILL exited %d on SIGTERM:\n%s", code, server.log())
	}
	code, out, errOut := run(t, "libseal-verify", "-log", dir, "-pubkey", filepath.Join(dir, "enclave.pub"), "-dump")
	if code != 0 {
		t.Fatalf("libseal-verify after SIGKILL and restart: exit %d:\n%s%s", code, out, errOut)
	}
	for _, cid := range acked {
		if !strings.Contains(out, cid) {
			t.Fatalf("push %s was acknowledged before the SIGKILL but is not in the log:\n%s", cid, out)
		}
	}
	t.Logf("%d pushes acknowledged before the SIGKILL, all in the restarted set", len(acked))
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// readAll reads every file in dir, by name.
func readAll(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// testVerdicts is libseal-verify's exit code and output on each kind of set.
func testVerdicts(t *testing.T, dir string, entries int) {
	for _, tc := range []struct {
		name  string
		edit  func(t *testing.T, dir string)
		args  func(dir string) []string
		code  int
		match *regexp.Regexp
	}{
		{name: "clean", code: 0, match: regexp.MustCompile(fmt.Sprintf(`(?m)^OK: %d entries, hash chain intact, enclave signature valid`, entries))},
		{name: "flipped byte", edit: func(t *testing.T, dir string) { flip(t, dir) }, code: 1, match: located},
		{name: "no manifest", edit: func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, "git.manifest")); err != nil {
				t.Fatal(err)
			}
		}, code: 1, match: regexp.MustCompile(`VERIFICATION FAILED: .*no manifest sidecar`)},
		{name: "no -log", args: func(string) []string { return nil }, code: 2, match: regexp.MustCompile(`-log is required`)},
		{name: "-resume over a rolled-back shard's edited sidecar", edit: rollBackUnderForgedSidecar,
			args: func(set string) []string {
				return []string{"-log", set, "-pubkey", filepath.Join(set, "enclave.pub"), "-resume"}
			},
			code: 1, match: regexp.MustCompile(`VERIFICATION FAILED: .*shard rolled back`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := copySet(t, dir)
			if tc.edit != nil {
				tc.edit(t, set)
			}
			args := []string{"-log", set, "-pubkey", filepath.Join(set, "enclave.pub")}
			if tc.args != nil {
				args = tc.args(set)
			}
			code, out, errOut := run(t, "libseal-verify", args...)
			if code != tc.code || !tc.match.MatchString(out+errOut) {
				t.Fatalf("exit %d, want %d and output matching %q:\n%s%s", code, tc.code, tc.match, out, errOut)
			}
		})
	}
}

// copySet copies the log set and the key material into a new directory.
func copySet(t *testing.T, dir string) string {
	t.Helper()
	to := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		src, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		dst, err := os.Create(filepath.Join(to, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(dst, src)
		src.Close()
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// rollBackUnderForgedSidecar cuts the larger shard back to its first commit
// point with entries, which a manifest no longer finds, lets a checkpointing
// verification leave that shard a sidecar at the cut, and edits the
// sidecar's Seq — a field the shard file cannot authenticate — past every
// state a manifest attests.
func rollBackUnderForgedSidecar(t *testing.T, dir string) {
	t.Helper()
	k, shard := 0, filepath.Join(dir, "git-shard0.lseal")
	if other := filepath.Join(dir, "git-shard1.lseal"); fileSize(t, other) > fileSize(t, shard) {
		k, shard = 1, other
	}
	var cut int64
	if _, err := libseal.Verify(dir, libseal.VerifyStreamOptions{OnSegment: func(si libseal.VerifySegment) error {
		if si.Shard == k && si.EndSeq > 0 && cut == 0 {
			cut = si.CommittedBytes
		}
		return nil
	}}); err != nil || cut == 0 {
		t.Fatalf("intact set: %v, first commit point of shard %d at %d", err, k, cut)
	}
	if err := os.Truncate(shard, cut); err != nil {
		t.Fatal(err)
	}
	_, err := libseal.Verify(dir, libseal.VerifyStreamOptions{Checkpoint: &libseal.VerifyCheckpointConfig{EverySegments: 1}})
	if err == nil || !strings.Contains(err.Error(), "shard rolled back") {
		t.Fatalf("shard %d cut back to byte %d: %v, want a rollback", k, cut, err)
	}
	c, err := audit.LoadCheckpoint(shard + ".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	c.Seq = 1000
	if err := c.Save(shard + ".ckpt"); err != nil {
		t.Fatal(err)
	}
}

// flip inverts the byte in the middle of shard 0 and returns its path.
func flip(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "git-shard0.lseal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
