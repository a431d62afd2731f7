package audit

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/faultinject"
	"libseal/internal/rote"
	"libseal/internal/sqldb"
	"libseal/internal/telemetry"
	"libseal/internal/vfs"
)

// Write-operation layout of a fresh log file: the magic is write 0, and each
// append commits its group — entry record, then signature record — in one
// write, so append k is write 1+k. A fault meant for one record of the group
// strikes at that record's byte offset in the write (faultinject's AtByte).
func appendFirstWrite(k int) int { return 1 + k }

// entryRecordSize is the on-disk size of the entry record appending vals to
// table writes: the offset, within its group's write, of the record after it.
func entryRecordSize(t *testing.T, table string, vals ...any) int {
	t.Helper()
	e := &Entry{Table: table}
	for _, v := range vals {
		sv, err := sqldb.FromGo(v)
		if err != nil {
			t.Fatal(err)
		}
		e.Values = append(e.Values, sv)
	}
	return int(recordSize(e.Marshal()))
}

func fastGroupPolicy() rote.RetryPolicy {
	return rote.RetryPolicy{
		Timeout:     100 * time.Millisecond,
		Retries:     1,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
}

func TestTornAppendRecovered(t *testing.T) {
	e := newAuditEnv(t)
	// The third append dies two bytes into its entry record's header.
	in := faultinject.Scenario{Rules: []faultinject.Rule{
		faultinject.TornWrite("git-shard0.lseal", appendFirstWrite(2)).AtByte(2),
	}}.Build()

	cfg := e.diskConfig("git")
	cfg.FS = in.FS(nil)
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, cfg)
		if err != nil {
			return err
		}
		if err := l.Append(env, "updates", 1, "r", "main", "c1", "update"); err != nil {
			return err
		}
		return l.Append(env, "updates", 2, "r", "main", "c2", "update")
	})
	// The third append dies mid-write: the handle is wedged (process crash)
	// and the caller sees the failure, so the entry was never acknowledged.
	err := e.bridge.Call(func(env *asyncall.Env) error {
		return l.Append(env, "updates", 3, "r", "main", "c3", "update")
	})
	if !errors.Is(err, faultinject.ErrTornWrite) {
		t.Fatalf("torn append: %v, want ErrTornWrite", err)
	}
	if l.Seq() != 2 {
		t.Fatalf("seq advanced past the failed append: %d", l.Seq())
	}
	l.Close()

	// The torn tail makes the raw file fail strict verification...
	path := filepath.Join(e.dir, "git-shard0.lseal")
	if _, err := verifyFile(path, VerifyOptions{Pub: e.encl.PublicKey()}); !errors.Is(err, ErrTampered) {
		t.Fatalf("strict verify of torn file: %v, want ErrTampered", err)
	}

	// ...but recovery discards the debris and replays the committed prefix.
	// The crash happened after the counter increment but before the flush,
	// so the persisted anchor lags the group by one.
	rcfg := e.diskConfig("git")
	rcfg.RecoverMaxLag = 1
	var rec *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		rec, err = recoverOneShard(env, rcfg, e.encl.PublicKey())
		return err
	})
	defer rec.Close()
	if rec.Seq() != 2 {
		t.Fatalf("recovered seq = %d, want 2", rec.Seq())
	}
	// Recovery truncated the debris and re-anchored: the file passes strict
	// client-side verification again, and appends keep working.
	entries, err := verifyFile(path, VerifyOptions{Pub: e.encl.PublicKey(), Protector: e.group})
	if err != nil {
		t.Fatalf("post-recovery strict verify: %v", err)
	}
	if len(entries) != 2 || entries[1].Values[3].TextVal() != "c2" {
		t.Fatalf("entries = %v", entries)
	}
	e.call(t, func(env *asyncall.Env) error {
		return rec.Append(env, "updates", 4, "r", "main", "c4", "update")
	})
	if _, err := verifyFile(path, VerifyOptions{Pub: e.encl.PublicKey(), Protector: e.group}); err != nil {
		t.Fatalf("append after recovery broke the chain: %v", err)
	}
}

// TestENOSPCAppendRolledBack fills the disk part-way through an append's one
// write — at the start of each record header and each payload in it (writeJ:
// the J-th of those) — for a shard file and for the manifest sidecar, on a
// set that was just created, just recovered and just trimmed: the failed
// append must leave no trace, the same handle must keep working once the disk
// has room again, and strict verification must find exactly the acknowledged
// records.
func TestENOSPCAppendRolledBack(t *testing.T) {
	entry := entryRecordSize(t, "updates", 2, "r", "main", "c2", "update")
	// label names the case as the suite always has; the shard file of a
	// one-shard set is shard 0's.
	files := []struct {
		label, name string
		shards      int
		at          []int // where the append's headers and payloads start in its write
	}{
		{"git.lseal", "git-shard0.lseal", 1, []int{0, 5, entry, entry + 5}},
		{"git.manifest", "git.manifest", 2, []int{0, 5}},
	}
	for _, state := range []string{"fresh", "recovered", "trimmed"} {
		for _, file := range files {
			for j, at := range file.at {
				t.Run(fmt.Sprintf("%s/%s/write%d", state, file.label, j), func(t *testing.T) {
					e := newAuditEnv(t)
					in := faultinject.New(1)
					cfg := ShardedConfig{Config: e.diskConfig("git"), Shards: file.shards}
					cfg.FS = in.FS(nil)
					var s *ShardedLog
					e.call(t, func(env *asyncall.Env) (err error) {
						if s, err = NewSharded(env, cfg); err != nil {
							return err
						}
						if err := s.Append(env, 0, "updates", 1, "r", "main", "c1", "update"); err != nil {
							return err
						}
						switch state {
						case "recovered":
							s.Close()
							s, err = RecoverSharded(env, cfg, e.encl.PublicKey())
						case "trimmed":
							err = trimSet(env, s, []string{"DELETE FROM updates WHERE time < 1"})
						}
						return err
					})
					defer s.Close()
					appendTo := func(env *asyncall.Env, time int, cid string) error {
						if file.shards > 1 {
							return s.WriteManifest(env)
						}
						return s.Append(env, 0, "updates", time, "r", "main", cid, "update")
					}
					n := in.Count("fs:" + file.name)
					in.Add(faultinject.NoSpace(file.name, n, n+1).AtByte(at))
					err := e.bridge.Call(func(env *asyncall.Env) error { return appendTo(env, 2, "c2") })
					if !errors.Is(err, syscall.ENOSPC) {
						t.Fatalf("append on full disk: %v, want ENOSPC", err)
					}
					e.call(t, func(env *asyncall.Env) error { return appendTo(env, 3, "c3") })
					s.Close()

					rep, err := VerifyPath(context.Background(), e.dir, StreamOptions{
						VerifyOptions: VerifyOptions{Pub: e.encl.PublicKey(), Protector: e.group},
					})
					if err != nil {
						t.Fatal(err)
					}
					if file.shards > 1 {
						if rep.TotalEntries != 1 || rep.Manifests != 2 {
							t.Fatalf("entries = %d, manifests = %d; want 1 and 2", rep.TotalEntries, rep.Manifests)
						}
						return
					}
					entries, err := verifyFile(filepath.Join(e.dir, file.name), VerifyOptions{Pub: e.encl.PublicKey()})
					if err != nil {
						t.Fatal(err)
					}
					if len(entries) != 2 || entries[0].Values[3].TextVal() != "c1" || entries[1].Values[3].TextVal() != "c3" {
						t.Fatalf("entries = %v", entries)
					}
				})
			}
		}
	}
}

// failRenameFS simulates a crash at the trim rewrite's commit point: the new
// image is fully written but the rename never lands.
type failRenameFS struct{ vfs.OS }

var errRenameCrash = errors.New("simulated crash at rename")

func (failRenameFS) Rename(oldpath, newpath string) error { return errRenameCrash }

func TestCrashBeforeTrimCommitKeepsOldChain(t *testing.T) {
	e := newAuditEnv(t)
	cfg := e.diskConfig("git")
	cfg.FS = failRenameFS{}
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, cfg)
		if err != nil {
			return err
		}
		for i := 1; i <= 3; i++ {
			cid := "c" + string(rune('0'+i))
			if err := l.Append(env, "updates", i, "r", "main", cid, "update"); err != nil {
				return err
			}
		}
		return nil
	})
	err := e.bridge.Call(func(env *asyncall.Env) error {
		return l.Trim(env, []string{
			"DELETE FROM updates WHERE time NOT IN (SELECT MAX(time) FROM updates GROUP BY repo, branch)",
		})
	})
	if !errors.Is(err, errRenameCrash) {
		t.Fatalf("trim: %v, want rename crash", err)
	}
	// No half state: the temporary image is gone and the old log is intact.
	if _, err := os.Stat(filepath.Join(e.dir, "git-shard0.lseal.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("trim left its temporary file behind: %v", err)
	}
	// The process dies here (no Close). Recovery replays the complete old
	// chain; the trim's counter increment landed before the crash, so the
	// old file lags the group by one.
	rcfg := e.diskConfig("git")
	rcfg.RecoverMaxLag = 1
	var rec *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		rec, err = recoverOneShard(env, rcfg, e.encl.PublicKey())
		return err
	})
	defer rec.Close()
	if rec.Seq() != 3 {
		t.Fatalf("recovered seq = %d, want the full pre-trim chain (3)", rec.Seq())
	}
	if _, err := verifyFile(filepath.Join(e.dir, "git-shard0.lseal"), VerifyOptions{
		Pub: e.encl.PublicKey(), Protector: e.group,
	}); err != nil {
		t.Fatalf("re-anchored old chain fails verification: %v", err)
	}
}

func TestCrashAfterTrimCommitKeepsNewChain(t *testing.T) {
	e := newAuditEnv(t)
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, e.diskConfig("git"))
		if err != nil {
			return err
		}
		for i := 1; i <= 3; i++ {
			cid := "c" + string(rune('0'+i))
			if err := l.Append(env, "updates", i, "r", "main", cid, "update"); err != nil {
				return err
			}
		}
		return l.Trim(env, []string{
			"DELETE FROM updates WHERE time NOT IN (SELECT MAX(time) FROM updates GROUP BY repo, branch)",
		})
	})
	// Crash immediately after the rename committed (no Close). Recovery
	// accepts the complete new chain — the trim re-signed it at a fresh
	// counter, so no lag allowance is needed.
	var rec *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		rec, err = recoverOneShard(env, e.diskConfig("git"), e.encl.PublicKey())
		return err
	})
	defer rec.Close()
	if rec.Seq() != 1 {
		t.Fatalf("recovered seq = %d, want the trimmed chain (1)", rec.Seq())
	}
	entries, err := verifyFile(filepath.Join(e.dir, "git-shard0.lseal"), VerifyOptions{
		Pub: e.encl.PublicKey(), Protector: e.group,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Values[0].Int64() != 3 {
		t.Fatalf("entries = %+v", entries)
	}
}

// failReopenFS lets a replacement of the named file land and then fails the
// reopen for append, once: the state in which the pre-rename handle points
// at an unlinked inode.
type failReopenFS struct {
	vfs.OS
	name  string
	mu    sync.Mutex // a trim replaces the shard files side by side
	armed bool
}

var errReopen = errors.New("simulated reopen failure")

func (f *failReopenFS) Rename(oldpath, newpath string) error {
	err := f.OS.Rename(oldpath, newpath)
	if err == nil && filepath.Base(newpath) == f.name {
		f.mu.Lock()
		f.armed = true
		f.mu.Unlock()
	}
	return err
}

func (f *failReopenFS) Append(name string) (vfs.File, error) {
	f.mu.Lock()
	fail := f.armed && filepath.Base(name) == f.name
	if fail {
		f.armed = false
	}
	f.mu.Unlock()
	if fail {
		return nil, errReopen
	}
	return f.OS.Append(name)
}

// TestTrimReopenFailureFailsClosed: once a rewrite's rename landed, the new
// image is the log, whatever happens next. If the file cannot be reopened
// the trim reports it, memory follows the new image, and later appends fail
// instead of being acknowledged into a file no path names — so recovery
// finds a log that is fresh and misses nothing that was acknowledged.
func TestTrimReopenFailureFailsClosed(t *testing.T) {
	// label names the case as the suite always has; the shard file of a
	// one-shard set is shard 0's.
	for _, tc := range []struct {
		label, file string
		shards      int
	}{{"git.lseal", "git-shard0.lseal", 1}, {"git.manifest", "git.manifest", 2}} {
		t.Run(tc.label, func(t *testing.T) {
			e := newAuditEnv(t)
			cfg := ShardedConfig{Config: e.diskConfig("git"), Shards: tc.shards}
			cfg.FS = &failReopenFS{name: tc.file}
			var s *ShardedLog
			e.call(t, func(env *asyncall.Env) (err error) {
				if s, err = NewSharded(env, cfg); err != nil {
					return err
				}
				for i := 1; i <= 3; i++ {
					if err := s.Append(env, 0, "updates", i, "r", "main", fmt.Sprintf("c%d", i), "update"); err != nil {
						return err
					}
				}
				return nil
			})
			epoch := s.Epoch()
			err := e.bridge.Call(func(env *asyncall.Env) error {
				return trimSet(env, s, []string{"DELETE FROM updates WHERE time < 3"})
			})
			if !errors.Is(err, errReopen) {
				t.Fatalf("trim: %v, want the reopen failure", err)
			}
			if s.Seq() != 1 {
				t.Fatalf("seq = %d after the rewrite landed, want the trimmed chain (1)", s.Seq())
			}
			// The failed file refuses further records, however often asked.
			for i := 0; i < 3; i++ {
				err = e.bridge.Call(func(env *asyncall.Env) error {
					if tc.shards > 1 {
						return s.WriteManifest(env)
					}
					return s.Append(env, 0, "updates", 4+i, "r", "main", "lost", "update")
				})
				if !errors.Is(err, errReopen) {
					t.Fatalf("append to the failed file: %v, want it refused", err)
				}
			}
			if tc.shards > 1 && s.Epoch() != epoch+1 {
				t.Fatalf("epoch = %d, want the landed manifest's (%d)", s.Epoch(), epoch+1)
			}
			// The process dies here (no Close). Strict recovery — no lag
			// allowance — accepts the new image.
			var rec *ShardedLog
			e.call(t, func(env *asyncall.Env) (err error) {
				rcfg := cfg
				rcfg.FS = nil
				rec, err = RecoverSharded(env, rcfg, e.encl.PublicKey())
				return err
			})
			defer rec.Close()
			res, err := rec.Query("SELECT cid FROM updates")
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0][0].TextVal() != "c3" {
				t.Fatalf("recovered rows = %v, want the one survivor c3", res.Rows)
			}
			if _, err := VerifyPath(context.Background(), e.dir, StreamOptions{
				VerifyOptions: VerifyOptions{Pub: e.encl.PublicKey(), Protector: e.group},
			}); err != nil {
				t.Fatalf("strict verify after recovery: %v", err)
			}
		})
	}
}

func TestDegradedModeBuffersAndReanchors(t *testing.T) {
	e := newAuditEnv(t)
	e.group.SetRetryPolicy(fastGroupPolicy())
	cfg := e.diskConfig("git")
	cfg.AnchorTimeout = 150 * time.Millisecond
	cfg.DegradedLimit = 2
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, cfg)
		if err != nil {
			return err
		}
		return l.Append(env, "updates", 1, "r", "main", "c1", "update")
	})
	defer l.Close()
	anchored := l.Counter()

	// Kill the counter quorum (2 of 4 nodes with f = 1).
	nodes := e.group.Nodes()
	nodes[0].Fail()
	nodes[1].Fail()

	// Appends keep succeeding — persisted, chained and signed — under the
	// stale anchor, up to the degraded-mode bound.
	e.call(t, func(env *asyncall.Env) error {
		if err := l.Append(env, "updates", 2, "r", "main", "c2", "update"); err != nil {
			return err
		}
		return l.Append(env, "updates", 3, "r", "main", "c3", "update")
	})
	st := l.Status()
	if !st.Degraded || st.PendingAnchor != 2 {
		t.Fatalf("status = %+v, want degraded with 2 pending", st)
	}
	if l.Counter() != anchored {
		t.Fatalf("counter moved while the quorum was down: %d", l.Counter())
	}
	// Past the bound the append fails instead of widening the rollback
	// window without limit.
	err := e.bridge.Call(func(env *asyncall.Env) error {
		return l.Append(env, "updates", 4, "r", "main", "c4", "update")
	})
	if !errors.Is(err, ErrDegradedFull) {
		t.Fatalf("append past degraded limit: %v, want ErrDegradedFull", err)
	}
	if l.Seq() != 3 {
		t.Fatalf("seq = %d, want 3", l.Seq())
	}

	// Quorum heals; one re-anchor covers the whole backlog and flags the gap.
	nodes[0].Recover()
	nodes[1].Recover()
	e.call(t, func(env *asyncall.Env) error { return l.Reanchor(env) })
	st = l.Status()
	if st.Degraded || st.PendingAnchor != 0 || st.Gaps != 1 {
		t.Fatalf("status after reanchor = %+v", st)
	}
	if l.Counter() <= anchored {
		t.Fatalf("reanchor did not advance the counter: %d", l.Counter())
	}
	// Everything appended during the outage survives strict verification.
	entries, err := verifyFile(filepath.Join(e.dir, "git-shard0.lseal"), VerifyOptions{
		Pub: e.encl.PublicKey(), Protector: e.group,
	})
	if err != nil {
		t.Fatalf("strict verify after reanchor: %v", err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(entries))
	}
}

// TestDegradedBudgetSurvivesFailedCommit pins degraded-mode accounting to
// durable batches: a degraded-admitted append whose write fails never became
// part of the log, so it must not consume the DegradedLimit budget — and a
// later re-anchor must not record a gap over entries that do not exist.
func TestDegradedBudgetSurvivesFailedCommit(t *testing.T) {
	e := newAuditEnv(t)
	e.group.SetRetryPolicy(fastGroupPolicy())
	// Append 0 commits healthy (write 1); append 1 is admitted degraded and
	// its write fails with ENOSPC (rolled back, handle survives).
	first := appendFirstWrite(1)
	in := faultinject.Scenario{Rules: []faultinject.Rule{
		faultinject.NoSpace("git-shard0.lseal", first, first+1),
	}}.Build()
	cfg := e.diskConfig("git")
	cfg.FS = in.FS(nil)
	cfg.AnchorTimeout = 150 * time.Millisecond
	cfg.DegradedLimit = 2
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, cfg)
		if err != nil {
			return err
		}
		return l.Append(env, "updates", 1, "r", "main", "c1", "update")
	})
	defer l.Close()

	// Kill the counter quorum (2 of 4 nodes with f = 1).
	nodes := e.group.Nodes()
	nodes[0].Fail()
	nodes[1].Fail()

	// The failed degraded append: nothing became durable, so nothing may
	// count against the degraded budget.
	err := e.bridge.Call(func(env *asyncall.Env) error {
		return l.Append(env, "updates", 2, "r", "main", "c2", "update")
	})
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("failed degraded append: %v, want ENOSPC", err)
	}
	if st := l.Status(); st.Degraded || st.PendingAnchor != 0 {
		t.Fatalf("status after failed degraded commit = %+v, want no pending", st)
	}

	// The full budget is still available: two degraded appends succeed...
	e.call(t, func(env *asyncall.Env) error {
		if err := l.Append(env, "updates", 3, "r", "main", "c3", "update"); err != nil {
			return err
		}
		return l.Append(env, "updates", 4, "r", "main", "c4", "update")
	})
	if st := l.Status(); !st.Degraded || st.PendingAnchor != 2 {
		t.Fatalf("status = %+v, want degraded with 2 pending", st)
	}
	// ...and only the next one hits the limit.
	err = e.bridge.Call(func(env *asyncall.Env) error {
		return l.Append(env, "updates", 5, "r", "main", "c5", "update")
	})
	if !errors.Is(err, ErrDegradedFull) {
		t.Fatalf("append past degraded limit: %v, want ErrDegradedFull", err)
	}
}

func TestDegradedDisabledFailsAppend(t *testing.T) {
	e := newAuditEnv(t)
	e.group.SetRetryPolicy(fastGroupPolicy())
	cfg := e.diskConfig("git")
	cfg.AnchorTimeout = 150 * time.Millisecond // DegradedLimit stays 0
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, cfg)
		return err
	})
	defer l.Close()
	nodes := e.group.Nodes()
	nodes[0].Fail()
	nodes[1].Fail()
	err := e.bridge.Call(func(env *asyncall.Env) error {
		return l.Append(env, "updates", 1, "r", "main", "c1", "update")
	})
	if !errors.Is(err, rote.ErrNoQuorum) {
		t.Fatalf("append without degraded mode: %v, want ErrNoQuorum", err)
	}
	if l.Seq() != 0 {
		t.Fatalf("failed append advanced seq to %d", l.Seq())
	}
}

func TestTrimNeverDegrades(t *testing.T) {
	e := newAuditEnv(t)
	e.group.SetRetryPolicy(fastGroupPolicy())
	cfg := e.diskConfig("git")
	cfg.AnchorTimeout = 150 * time.Millisecond
	cfg.DegradedLimit = 8
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, cfg)
		if err != nil {
			return err
		}
		return l.Append(env, "updates", 1, "r", "main", "c1", "update")
	})
	defer l.Close()
	nodes := e.group.Nodes()
	nodes[0].Fail()
	nodes[1].Fail()
	// Re-signing trimmed history at a stale counter would widen the rollback
	// window, so a trim must fail outright while the quorum is down even
	// though appends would degrade gracefully.
	err := e.bridge.Call(func(env *asyncall.Env) error {
		return l.Trim(env, []string{"DELETE FROM updates"})
	})
	if !errors.Is(err, rote.ErrNoQuorum) {
		t.Fatalf("trim under dead quorum: %v, want ErrNoQuorum", err)
	}
	nodes[0].Recover()
	nodes[1].Recover()
	// The old chain is untouched. The trim's failed increment may have
	// landed on the minority of live nodes, so the group can read one ahead
	// of the log's anchor — the standard crashed-increment lag.
	if _, err := verifyFile(filepath.Join(e.dir, "git-shard0.lseal"), VerifyOptions{
		Pub: e.encl.PublicKey(), Protector: e.group, MaxCounterLag: 1,
	}); err != nil {
		t.Fatalf("old chain after failed trim: %v", err)
	}
}

// roteRoundTrips reads the counter protocol's round-trip count.
func roteRoundTrips() int64 {
	m, _ := telemetry.Get("rote.round_trips")
	return m.Value
}

// TestDegradedBatchSignsOnce pins what a degraded batch with no probe due
// costs: one signature at the stale anchor, no re-sign over a guessed fresh
// value and no counter round trip.
func TestDegradedBatchSignsOnce(t *testing.T) {
	e := newAuditEnv(t)
	e.group.SetRetryPolicy(fastGroupPolicy())
	cfg := e.diskConfig("git")
	cfg.AnchorTimeout = time.Minute // no probe falls due while the test runs
	cfg.DegradedLimit = 16
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, cfg)
		if err != nil {
			return err
		}
		return l.Append(env, "updates", 1, "r", "main", "c1", "update")
	})
	defer l.Close()
	anchored := l.Counter()
	nodes := e.group.Nodes()
	nodes[0].Fail()
	nodes[1].Fail()
	// The episode's first batch asks the quorum and fails: it opens the
	// episode.
	e.call(t, func(env *asyncall.Env) error {
		return l.Append(env, "updates", 2, "r", "main", "c2", "update")
	})
	if st := l.Status(); !st.Degraded || st.PendingAnchor != 1 {
		t.Fatalf("status after the failed anchor = %+v", st)
	}

	sigs, resigns, trips := mSignatures.Value(), mCommitResigns.Value(), roteRoundTrips()
	const n = 5
	for i := 0; i < n; i++ {
		e.call(t, func(env *asyncall.Env) error {
			return l.Append(env, "updates", 3+i, "r", "main", fmt.Sprintf("d%d", i), "update")
		})
	}
	if got := mSignatures.Value() - sigs; got != n {
		t.Fatalf("%d degraded batches made %d signatures, want %d", n, got, n)
	}
	if got := mCommitResigns.Value() - resigns; got != 0 {
		t.Fatalf("%d degraded batches re-signed %d times, want 0", n, got)
	}
	if got := roteRoundTrips() - trips; got != 0 {
		t.Fatalf("%d degraded batches made %d counter round trips, want 0", n, got)
	}
	if st := l.Status(); st.PendingAnchor != 1+n || l.Counter() != anchored {
		t.Fatalf("status = %+v at counter %d, want %d pending at %d", st, l.Counter(), 1+n, anchored)
	}

	// An explicit re-anchor always asks; the once-signed batches verify
	// strictly under it.
	nodes[0].Recover()
	nodes[1].Recover()
	e.call(t, func(env *asyncall.Env) error { return l.Reanchor(env) })
	if st := l.Status(); st.Degraded || st.Gaps != 1 {
		t.Fatalf("status after reanchor = %+v", st)
	}
	entries, err := verifyFile(filepath.Join(e.dir, "git-shard0.lseal"), VerifyOptions{
		Pub: e.encl.PublicKey(), Protector: e.group,
	})
	if err != nil {
		t.Fatalf("strict verify after reanchor: %v", err)
	}
	if len(entries) != 2+n {
		t.Fatalf("entries = %d, want %d", len(entries), 2+n)
	}
}

// TestAnchorBoundUnderShippedDefaults pins which bound ends one anchor under
// the shipped defaults: rote.DefaultRetryPolicy (2 s per attempt, two
// retries) and a 2 s AnchorTimeout, the default of libseal-server's
// -anchor-timeout and the benchmark's setting. Silent nodes fail an attempt
// in one round trip, so the retries run and the retry count ends the anchor.
// A node delayed past the bound makes the first attempt take the whole
// AnchorTimeout, and no retry runs. A deployment that sets no AnchorTimeout
// (internal/bench's stacks, the examples) leaves the policy's per-attempt
// Timeout to cut each attempt; that row scales the policy down to 100 ms.
func TestAnchorBoundUnderShippedDefaults(t *testing.T) {
	const shipped = 2 * time.Second
	if p := rote.DefaultRetryPolicy(); p.Timeout != shipped || p.Retries != 2 {
		t.Fatalf("default retry policy = %+v, want a %v timeout and 2 retries", p, shipped)
	}
	rows := []struct {
		name          string
		anchorTimeout time.Duration
		policyTimeout time.Duration // zero keeps the default policy
		slow          bool
		trips         int64
		min, max      time.Duration
	}{
		{"silent nodes", shipped, 0, false, 3, 0, shipped / 2},
		{"stuck nodes", shipped, 0, true, 1, shipped, shipped + shipped/2},
		{"stuck nodes, no AnchorTimeout", 0, 100 * time.Millisecond, true, 3, 300 * time.Millisecond, shipped},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			g, err := rote.NewGroup(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if row.policyTimeout > 0 {
				p := rote.DefaultRetryPolicy()
				p.Timeout = row.policyTimeout
				g.SetRetryPolicy(p)
			}
			if row.slow {
				faultinject.Scenario{Rules: []faultinject.Rule{
					faultinject.SlowNode(0, 0, 1<<30, 10*time.Second),
					faultinject.SlowNode(1, 0, 1<<30, 10*time.Second),
				}}.Build().AttachGroup(g)
			} else {
				g.Nodes()[0].Fail()
				g.Nodes()[1].Fail()
			}
			cfg := Config{Name: "git", Protector: g, AnchorTimeout: row.anchorTimeout}
			trips := roteRoundTrips()
			start := time.Now()
			_, err = cfg.incrementCounter("git")
			elapsed := time.Since(start)
			if !errors.Is(err, rote.ErrNoQuorum) {
				t.Fatalf("anchor: %v, want ErrNoQuorum", err)
			}
			if got := roteRoundTrips() - trips; got != row.trips {
				t.Errorf("anchor made %d round trips, want %d", got, row.trips)
			}
			if elapsed < row.min || elapsed >= row.max {
				t.Errorf("anchor failed after %v, want within [%v, %v)", elapsed, row.min, row.max)
			}
		})
	}
}

func TestRecoverCounterLag(t *testing.T) {
	e := newAuditEnv(t)
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, e.diskConfig("git"))
		if err != nil {
			return err
		}
		return l.Append(env, "updates", 1, "r", "main", "c1", "update")
	})
	l.Close()
	// A crash between a counter increment and the matching signature flush
	// leaves the group one ahead of the persisted anchor.
	if _, err := e.group.Increment("git-shard0"); err != nil {
		t.Fatal(err)
	}
	// Strict recovery refuses the lag: it is indistinguishable from a
	// rolled-back log at this layer.
	err := e.bridge.Call(func(env *asyncall.Env) error {
		_, err := recoverOneShard(env, e.diskConfig("git"), e.encl.PublicKey())
		return err
	})
	if !errors.Is(err, ErrBadCounter) {
		t.Fatalf("strict recover: %v, want ErrBadCounter", err)
	}
	// With the documented one-increment allowance, recovery succeeds and
	// immediately re-anchors, so clients never see the lag.
	rcfg := e.diskConfig("git")
	rcfg.RecoverMaxLag = 1
	var rec *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		rec, err = recoverOneShard(env, rcfg, e.encl.PublicKey())
		return err
	})
	defer rec.Close()
	if _, err := verifyFile(filepath.Join(e.dir, "git-shard0.lseal"), VerifyOptions{
		Pub: e.encl.PublicKey(), Protector: e.group,
	}); err != nil {
		t.Fatalf("strict verify after lag recovery: %v", err)
	}
}

func TestSilentCorruptionDetected(t *testing.T) {
	e := newAuditEnv(t)
	// Corrupt the middle byte of the first entry's payload. The write reports
	// success, so the log believes the entry is durable — only verification
	// can tell.
	entry := entryRecordSize(t, "updates", 1, "r", "main", "c1", "update")
	in := faultinject.Scenario{Rules: []faultinject.Rule{
		faultinject.CorruptWrite("git-shard0.lseal", appendFirstWrite(0)).AtByte(5 + (entry-5)/2),
	}}.Build()
	cfg := e.diskConfig("git")
	cfg.FS = in.FS(nil)
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, cfg)
		if err != nil {
			return err
		}
		if err := l.Append(env, "updates", 1, "r", "main", "c1", "update"); err != nil {
			return err
		}
		return l.Append(env, "updates", 2, "r", "main", "c2", "update")
	})
	l.Close()
	path := filepath.Join(e.dir, "git-shard0.lseal")
	if _, err := verifyFile(path, VerifyOptions{Pub: e.encl.PublicKey()}); !errors.Is(err, ErrTampered) {
		t.Fatalf("strict verify of corrupted log: %v, want ErrTampered", err)
	}
	// Recovery must not paper over it either: the damage sits inside the
	// signed prefix (signatures follow it), which is tampering, not a torn
	// tail.
	err := e.bridge.Call(func(env *asyncall.Env) error {
		rcfg := e.diskConfig("git")
		rcfg.RecoverMaxLag = 1
		_, err := recoverOneShard(env, rcfg, e.encl.PublicKey())
		return err
	})
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("recover from corrupted log: %v, want ErrTampered", err)
	}
}
