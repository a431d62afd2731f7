package audit

import (
	"crypto/ecdsa"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"libseal/internal/asyncall"
	"libseal/internal/enclave"
	"libseal/internal/rote"
	"libseal/internal/sqldb"
)

const testSchema = `
	CREATE TABLE updates (time INTEGER, repo TEXT, branch TEXT, cid TEXT, type TEXT);
	CREATE TABLE advertisements (time INTEGER, repo TEXT, branch TEXT, cid TEXT);
`

type auditEnv struct {
	encl   *enclave.Enclave
	bridge *asyncall.Bridge
	group  *rote.Group
	dir    string
}

func newAuditEnv(t testing.TB) *auditEnv {
	t.Helper()
	p := enclave.NewPlatform()
	encl, err := p.Launch(enclave.Config{Code: []byte("libseal-audit"), MaxThreads: 4, Cost: enclave.ZeroCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	bridge, err := asyncall.New(encl, asyncall.Config{Mode: asyncall.ModeSync})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bridge.Close)
	group, err := rote.NewGroup(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &auditEnv{encl: encl, bridge: bridge, group: group, dir: t.TempDir()}
}

func (e *auditEnv) diskConfig(name string) Config {
	return Config{Name: name, Schema: testSchema, Mode: ModeDisk, Dir: e.dir, Protector: e.group}
}

// oneShard is a one-shard set handled through its only shard. The suites
// written against a single log run through it, so they test "one shard =
// legacy bytes" on the only construct, trim and recover paths there are.
type oneShard struct {
	*Log
	set *ShardedLog
}

func (o *oneShard) Trim(env *asyncall.Env, queries []string) error {
	return trimSet(env, o.set, queries)
}

func (o *oneShard) Close() error { return o.set.Close() }

// trimSet trims a set the way a check+trim cycle does — the queries planned
// on a snapshot, the plan applied — and then compacts the files whatever
// their dead share.
func trimSet(env *asyncall.Env, s *ShardedLog, queries []string) error {
	var script []*sqldb.Stmt
	for _, q := range queries {
		stmts, err := s.DB().PrepareScript(q)
		if err != nil {
			return err
		}
		script = append(script, stmts...)
	}
	plan, err := PlanTrim(s.DB().Snapshot(), script)
	if err != nil {
		return err
	}
	if err := s.ApplyTrim(env, plan); err != nil {
		return err
	}
	return s.Compact(env)
}

// gitShard0 is shard 0 of the tests' "git" set as the drivers are told of it.
var gitShard0 = shardRef{counter: ShardName("git", 0)}

// verifyFile verifies one shard file on the caller's goroutine, its
// freshness judged against the counter its file name names, and returns its
// entries.
func verifyFile(path string, opts VerifyOptions) ([]*Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, entries, err := verifyEntries(f, opts, shardRef{counter: strings.TrimSuffix(filepath.Base(path), ".lseal")})
	return entries, err
}

func newOneShard(env *asyncall.Env, cfg Config) (*oneShard, error) {
	s, err := NewSharded(env, ShardedConfig{Config: cfg})
	if err != nil {
		return nil, err
	}
	return &oneShard{s.Shard(0), s}, nil
}

func recoverOneShard(env *asyncall.Env, cfg Config, pub *ecdsa.PublicKey) (*oneShard, error) {
	s, err := RecoverSharded(env, ShardedConfig{Config: cfg}, pub)
	if err != nil {
		return nil, err
	}
	return &oneShard{s.Shard(0), s}, nil
}

// call runs fn inside the enclave.
func (e *auditEnv) call(t testing.TB, fn func(env *asyncall.Env) error) {
	t.Helper()
	if err := e.bridge.Call(fn); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAndQuery(t *testing.T) {
	e := newAuditEnv(t)
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, Config{Name: "git", Schema: testSchema, Mode: ModeMemory})
		if err != nil {
			return err
		}
		if err := l.Append(env, "updates", 1, "r", "main", "c1", "update"); err != nil {
			return err
		}
		return l.Append(env, "advertisements", 2, "r", "main", "c1")
	})
	res, err := l.Query("SELECT cid FROM advertisements WHERE repo = ?", "r")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].TextVal() != "c1" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if l.Seq() != 2 {
		t.Fatalf("seq = %d", l.Seq())
	}
}

func TestPersistAndVerify(t *testing.T) {
	e := newAuditEnv(t)
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, e.diskConfig("git"))
		if err != nil {
			return err
		}
		if err := l.Append(env, "updates", 1, "r", "main", "c1", "update"); err != nil {
			return err
		}
		return l.Append(env, "updates", 2, "r", "main", "c2", "update")
	})
	defer l.Close()
	entries, err := verifyFile(filepath.Join(e.dir, "git-shard0.lseal"), VerifyOptions{
		Pub: e.encl.PublicKey(), Protector: e.group,
	})
	if err != nil {
		t.Fatalf("VerifyFile: %v", err)
	}
	if len(entries) != 2 || entries[1].Values[3].TextVal() != "c2" {
		t.Fatalf("entries = %v", entries)
	}
}

func TestTamperedEntryDetected(t *testing.T) {
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
	path := filepath.Join(e.dir, "git-shard0.lseal")
	data, _ := os.ReadFile(path)
	// Flip a byte inside the first entry record (past magic + header).
	data[len(fileMagic)+10] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	_, err := verifyFile(path, VerifyOptions{Pub: e.encl.PublicKey()})
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("err = %v, want ErrTampered", err)
	}
}

func TestDeletedEntryDetected(t *testing.T) {
	e := newAuditEnv(t)
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, e.diskConfig("git"))
		if err != nil {
			return err
		}
		for i := 1; i <= 3; i++ {
			if err := l.Append(env, "updates", i, "r", "main", "c", "update"); err != nil {
				return err
			}
		}
		return nil
	})
	l.Close()
	path := filepath.Join(e.dir, "git-shard0.lseal")
	// Reconstruct the file without the middle entry: records are
	// [E0 S0 E1 S1 E2 S2]; drop E1+S1, keeping the final signature. The
	// chain breaks because the final signature covers all three.
	f, _ := os.Open(path)
	recs, err := referenceRecords(f, false)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	out, _ := os.Create(path)
	out.Write(fileMagic)
	for i, r := range recs {
		if i == 2 || i == 3 {
			continue
		}
		writeRecords(out, []record{{typ: r.typ, payload: r.payload}})
	}
	out.Close()
	if _, err := verifyFile(path, VerifyOptions{Pub: e.encl.PublicKey()}); !errors.Is(err, ErrTampered) {
		t.Fatalf("err = %v, want ErrTampered", err)
	}
}

func TestForgedSignatureDetected(t *testing.T) {
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
	// Verify against a different enclave's key: the provider cannot forge
	// entries with a non-LibSEAL key.
	other := newAuditEnv(t)
	path := filepath.Join(e.dir, "git-shard0.lseal")
	if _, err := verifyFile(path, VerifyOptions{Pub: other.encl.PublicKey()}); !errors.Is(err, ErrTampered) {
		t.Fatalf("err = %v, want ErrTampered", err)
	}
}

func TestRollbackDetected(t *testing.T) {
	e := newAuditEnv(t)
	path := filepath.Join(e.dir, "git-shard0.lseal")
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, e.diskConfig("git"))
		if err != nil {
			return err
		}
		return l.Append(env, "updates", 1, "r", "main", "c1", "update")
	})
	// Snapshot the log, then append more (advancing the ROTE counter).
	oldLog, _ := os.ReadFile(path)
	e.call(t, func(env *asyncall.Env) error {
		return l.Append(env, "updates", 2, "r", "main", "c2", "update")
	})
	l.Close()
	// The provider restores the old version: counter freshness fails.
	os.WriteFile(path, oldLog, 0o644)
	_, err := verifyFile(path, VerifyOptions{Pub: e.encl.PublicKey(), Protector: e.group})
	if !errors.Is(err, ErrBadCounter) {
		t.Fatalf("err = %v, want ErrBadCounter", err)
	}
}

func TestTrimRewritesChain(t *testing.T) {
	e := newAuditEnv(t)
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, e.diskConfig("git"))
		if err != nil {
			return err
		}
		for i := 1; i <= 4; i++ {
			cid := "c" + string(rune('0'+i))
			if err := l.Append(env, "updates", i, "r", "main", cid, "update"); err != nil {
				return err
			}
		}
		if err := l.Append(env, "advertisements", 5, "r", "main", "c4"); err != nil {
			return err
		}
		return l.Trim(env, []string{
			"DELETE FROM advertisements",
			"DELETE FROM updates WHERE time NOT IN (SELECT MAX(time) FROM updates GROUP BY repo, branch)",
		})
	})
	defer l.Close()
	if n, _ := l.DB().TableRowCount("updates"); n != 1 {
		t.Fatalf("updates rows = %d, want 1", n)
	}
	// The rewritten file verifies and contains only the survivor.
	entries, err := verifyFile(filepath.Join(e.dir, "git-shard0.lseal"), VerifyOptions{
		Pub: e.encl.PublicKey(), Protector: e.group,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Values[0].Int64() != 4 {
		t.Fatalf("entries = %+v", entries)
	}
	// Appending after a trim keeps the chain consistent.
	e.call(t, func(env *asyncall.Env) error {
		return l.Append(env, "updates", 6, "r", "dev", "d1", "update")
	})
	if _, err := verifyFile(filepath.Join(e.dir, "git-shard0.lseal"), VerifyOptions{Pub: e.encl.PublicKey()}); err != nil {
		t.Fatalf("post-trim append broke the chain: %v", err)
	}
}

func TestRecoverReplaysEntries(t *testing.T) {
	e := newAuditEnv(t)
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, e.diskConfig("git"))
		if err != nil {
			return err
		}
		if err := l.Append(env, "updates", 1, "r", "main", "c1", "update"); err != nil {
			return err
		}
		return l.Append(env, "advertisements", 2, "r", "main", "c1")
	})
	seqBefore := l.Seq()
	chainBefore := l.ChainHash()
	l.Close()

	// Simulate a restart: recover from disk into a fresh Log.
	var recovered *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		recovered, err = recoverOneShard(env, e.diskConfig("git"), e.encl.PublicKey())
		return err
	})
	defer recovered.Close()
	if recovered.Seq() != seqBefore || recovered.ChainHash() != chainBefore {
		t.Fatalf("recovered seq/chain mismatch: %d vs %d", recovered.Seq(), seqBefore)
	}
	res, err := recovered.Query("SELECT COUNT(*) FROM updates")
	if err != nil || res.Rows[0][0].Int64() != 1 {
		t.Fatalf("recovered query = %v, %v", res, err)
	}
	// The recovered log keeps working.
	e.call(t, func(env *asyncall.Env) error {
		return recovered.Append(env, "updates", 3, "r", "main", "c2", "update")
	})
	if _, err := verifyFile(filepath.Join(e.dir, "git-shard0.lseal"), VerifyOptions{Pub: e.encl.PublicKey()}); err != nil {
		t.Fatalf("post-recovery append broke the chain: %v", err)
	}
}

func TestMemoryModeWritesNoFiles(t *testing.T) {
	e := newAuditEnv(t)
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, Config{Name: "mem", Schema: testSchema, Mode: ModeMemory, Dir: e.dir})
		if err != nil {
			return err
		}
		return l.Append(env, "updates", 1, "r", "main", "c1", "update")
	})
	defer l.Close()
	if _, err := os.Stat(filepath.Join(e.dir, "mem-shard0.lseal")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("memory mode created a file: %v", err)
	}
}

func TestEmptyFileVerifies(t *testing.T) {
	e := newAuditEnv(t)
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, e.diskConfig("empty"))
		return err
	})
	l.Close()
	entries, err := verifyFile(filepath.Join(e.dir, "empty-shard0.lseal"), VerifyOptions{Pub: e.encl.PublicKey()})
	if err != nil || len(entries) != 0 {
		t.Fatalf("empty log: %v, %v", entries, err)
	}
}
