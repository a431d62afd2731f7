package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"libseal"
	"libseal/internal/asyncall"
	"libseal/internal/audit"
	"libseal/internal/httpparse"
	"libseal/internal/services/owncloud"
	"libseal/internal/ssm"
	"libseal/internal/ssm/dropboxssm"
	"libseal/internal/ssm/gitssm"
	"libseal/internal/ssm/owncloudssm"
)

func TestGitStackAllModes(t *testing.T) {
	for _, mode := range []SealMode{ModeNative, ModeProcess, ModeMem, ModeDisk} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			st, err := NewGitStack(StackOptions{Mode: mode}, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			client := st.NewClient(true)
			defer client.Close()
			rsp, err := client.Do(httpparse.NewRequest("POST", "/git/r/git-receive-pack", []byte("create main c1")))
			if err != nil || rsp.Status != 200 {
				t.Fatalf("push: %v %v", rsp, err)
			}
			rsp, err = client.Do(httpparse.NewRequest("GET", "/git/r/info/refs", nil))
			if err != nil || !strings.Contains(string(rsp.Body), "main c1") {
				t.Fatalf("fetch: %v %v", rsp, err)
			}
			if mode == ModeMem || mode == ModeDisk {
				if result, err := st.Seal.CheckNow(); err != nil || result != "ok" {
					t.Fatalf("CheckNow = %q %v", result, err)
				}
				n, err := st.Seal.Log().DB().TableRowCount("updates")
				if err != nil || n != 1 {
					t.Fatalf("updates = %d %v", n, err)
				}
			}
		})
	}
}

func TestGitStackDetectsInjectedAttack(t *testing.T) {
	st, err := NewGitStack(StackOptions{Mode: ModeMem}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	client := st.NewClient(true)
	defer client.Close()
	client.Do(httpparse.NewRequest("POST", "/git/r/git-receive-pack", []byte("create main c1")))
	client.Do(httpparse.NewRequest("POST", "/git/r/git-receive-pack", []byte("update main c2")))
	st.Backend.InjectRollback("r", "main", "c1")
	client.Do(httpparse.NewRequest("GET", "/git/r/info/refs", nil))
	result, err := st.Seal.CheckNow()
	if err != nil || !strings.Contains(result, "git-soundness") {
		t.Fatalf("result = %q %v", result, err)
	}
}

func TestOwnCloudStack(t *testing.T) {
	st, err := NewOwnCloudStack(StackOptions{Mode: ModeMem}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	client := st.NewClient(true)
	defer client.Close()
	push, _ := json.Marshal(owncloudssm.PushMsg{Doc: "d", Client: "a", Ops: []string{"x"}})
	rsp, err := client.Do(httpparse.NewRequest("POST", "/owncloud/push", push))
	if err != nil || rsp.Status != 200 {
		t.Fatalf("push: %v %v", rsp, err)
	}
	if result, err := st.Seal.CheckNow(); err != nil || result != "ok" {
		t.Fatalf("CheckNow = %q %v", result, err)
	}
	// Inject a lost edit and observe detection through the whole stack.
	st.Service.SetFaults(owncloud.Faults{DropEveryNthOp: 1})
	sync, _ := json.Marshal(owncloudssm.SyncMsg{Doc: "d", Client: "b", Since: 0})
	if _, err := client.Do(httpparse.NewRequest("POST", "/owncloud/sync", sync)); err != nil {
		t.Fatal(err)
	}
	result, err := st.Seal.CheckNow()
	if err != nil || !strings.Contains(result, "owncloud-sync-completeness") {
		t.Fatalf("result = %q %v", result, err)
	}
}

func TestDropboxStack(t *testing.T) {
	st, err := NewDropboxStack(StackOptions{Mode: ModeMem}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	client := st.NewDropboxClient(true)
	defer client.Close()
	body, _ := json.Marshal(dropboxssm.CommitBatchMsg{Account: "a", Host: "h",
		Commits: []dropboxssm.FileCommit{{File: "f", Blocklist: "b1", Size: 10}}})
	rsp, err := client.Do(httpparse.NewRequest("POST", "/dropbox/commit_batch", body))
	if err != nil || rsp.Status != 200 {
		t.Fatalf("commit: %v %v", rsp, err)
	}
	rsp, err = client.Do(httpparse.NewRequest("GET", "/dropbox/list?account=a&host=h", nil))
	if err != nil || !strings.Contains(string(rsp.Body), "b1") {
		t.Fatalf("list: %v %v", rsp, err)
	}
	if result, err := st.Seal.CheckNow(); err != nil || result != "ok" {
		t.Fatalf("CheckNow = %q %v", result, err)
	}
}

func TestStaticStackAsyncAndSync(t *testing.T) {
	for _, cm := range []asyncall.Mode{asyncall.ModeSync, asyncall.ModeAsync} {
		cm := cm
		t.Run(cm.String(), func(t *testing.T) {
			st, err := NewStaticStack(StackOptions{Mode: ModeProcess, CallMode: cm}, 1024, true)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			client := st.NewClient(true)
			defer client.Close()
			rsp, err := client.Do(httpparse.NewRequest("GET", "/c", nil))
			if err != nil || len(rsp.Body) != 1024 {
				t.Fatalf("rsp: %v %v", rsp, err)
			}
		})
	}
}

func TestSquidStack(t *testing.T) {
	st, err := NewSquidStack(StackOptions{Mode: ModeProcess}, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	client := NewClient(st.Dial, st.ClientConfig(), true)
	defer client.Close()
	rsp, err := client.Do(httpparse.NewRequest("GET", "/x", nil))
	if err != nil || len(rsp.Body) != 512 {
		t.Fatalf("rsp: %v %v", rsp, err)
	}
}

func TestLoadDriver(t *testing.T) {
	st, err := NewStaticStack(StackOptions{Mode: ModeNative}, 256, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res, err := Load{
		Clients:     4,
		Requests:    40,
		Warmup:      8,
		MakeClient:  func(int) *Client { return st.NewClient(true) },
		MakeRequest: func(w, s int) *httpparse.Request { return httpparse.NewRequest("GET", "/", nil) },
		Validate: func(rsp *httpparse.Response) error {
			if rsp.Status != 200 {
				return fmt.Errorf("status %d", rsp.Status)
			}
			return nil
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 40 || res.Errors != 0 || res.Throughput <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Latency.P50 > res.Latency.P99 {
		t.Fatalf("latency percentiles inverted: %+v", res.Latency)
	}
	// Incomplete specs are rejected.
	if _, err := (Load{}).Run(); err == nil {
		t.Fatal("empty load accepted")
	}
}

func TestDiskModePersistsAcrossStack(t *testing.T) {
	dir := t.TempDir()
	st, err := NewGitStack(StackOptions{Mode: ModeDisk, Dir: dir, ROTELatency: time.Microsecond}, 0)
	if err != nil {
		t.Fatal(err)
	}
	client := st.NewClient(true)
	client.Do(httpparse.NewRequest("POST", "/git/r/git-receive-pack", []byte("create main c1")))
	client.Close()
	st.Close()
}

// TestFailedDeploymentLeaksNothing: a deployment whose LibSEAL instance
// fails to open tears down what it had started — the async bridge's
// goroutines and the temporary audit directory — instead of returning a nil
// stack with them still running.
func TestFailedDeploymentLeaksNothing(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	file := filepath.Join(tmp, "audit")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	deployFailing := func() {
		t.Helper()
		// An audit directory that is a regular file.
		opts := StackOptions{Mode: ModeDisk, CallMode: asyncall.ModeAsync, Dir: file}
		if _, err := NewGitStack(opts, 0); err == nil {
			t.Fatal("Git stack on a file as its audit directory deployed")
		}
		// Recovery from a fresh temporary directory, behind the proxy.
		opts.Dir, opts.Seal = "", []libseal.Option{libseal.WithRecovery(0)}
		if _, err := NewDropboxStack(opts, 0); err == nil {
			t.Fatal("Dropbox stack recovered an empty directory")
		}
	}
	// One round first, so anything started once per process is counted in
	// the baseline.
	deployFailing()
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		deployFailing()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines %d -> %d across five failed deployments", baseline, n)
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "libseal-audit-*")); len(left) > 0 {
		t.Fatalf("failed deployments left %v behind", left)
	}
}

// TestCrossInstanceMergeDetection reproduces the §3.2 scale-out scenario end
// to end: two independent LibSEAL instances (separate enclaves, separate
// persisted logs) each observe half of a violation — one logs the pushes,
// the other logs a rolled-back advertisement. Neither partial log proves
// anything alone; verifying and merging both does.
func TestCrossInstanceMergeDetection(t *testing.T) {
	mod := gitssm.New()
	dirs := map[string]string{}
	opts := map[string]audit.VerifyOptions{}

	// run deploys one LibSEAL instance in its own audit directory, drives
	// it, and keeps the directory under the instance's name.
	run := func(instance string, drive func(st *GitStack, c *Client)) {
		dir := t.TempDir()
		st, err := NewGitStack(StackOptions{Mode: ModeDisk, Dir: dir}, 0)
		if err != nil {
			t.Fatal(err)
		}
		client := st.NewClient(true)
		drive(st, client)
		client.Close()
		st.Close()
		dirs[instance] = dir
		opts[instance] = audit.VerifyOptions{Pub: st.Enclave.PublicKey()}
	}

	// Instance A terminates the pushes.
	run("inst-a", func(_ *GitStack, c *Client) {
		c.Do(httpparse.NewRequest("POST", "/git/r/git-receive-pack", []byte("create main c1")))
		c.Do(httpparse.NewRequest("POST", "/git/r/git-receive-pack", []byte("update main c2")))
	})
	// Instance B terminates a fetch whose advertisement was rolled back.
	run("inst-b", func(st *GitStack, c *Client) {
		c.Do(httpparse.NewRequest("POST", "/git/r/git-receive-pack", []byte("create main c1")))
		st.Backend.InjectRollback("r", "main", "c1")
		// B's backend never saw c2; its advertisement of c1 is the stale
		// view a client behind this instance would receive.
		c.Do(httpparse.NewRequest("GET", "/git/r/info/refs", nil))
	})

	// Each partial log alone shows no soundness violation.
	for instance, dir := range dirs {
		db, err := audit.MergeVerified(mod.Schema(), map[string]string{instance: dir}, opts)
		if err != nil {
			t.Fatal(err)
		}
		v, err := ssm.CheckInvariants(db, mod)
		if err != nil {
			t.Fatal(err)
		}
		if v["git-soundness"] != nil {
			t.Fatalf("partial log %s alone already shows the violation", instance)
		}
	}

	// The merged view interleaves A's c2 push before B's c1 advertisement
	// (by local logical time), exposing the rollback.
	db, err := audit.MergeVerified(mod.Schema(), dirs, opts)
	if err != nil {
		t.Fatal(err)
	}
	violations, err := ssm.CheckInvariants(db, mod)
	if err != nil {
		t.Fatal(err)
	}
	if violations["git-soundness"] == nil {
		t.Fatalf("merged cross-instance logs missed the rollback: %v", violations)
	}
}
