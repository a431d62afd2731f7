package audit

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"libseal/internal/asyncall"
)

// dirFiles reads every file in dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// rewriteSidecar replaces the manifest sidecar at path with one holding the
// record payloads edit returns, given those it holds.
func rewriteSidecar(t *testing.T, path string, edit func(payloads [][]byte) [][]byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads, _ := sidecarRecords(t, raw)
	if err := os.WriteFile(path, sidecarOf(edit(payloads)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// sidecarOf is a sidecar holding a manifest record for each payload.
func sidecarOf(payloads [][]byte) []byte {
	out := bytes.NewBuffer(bytes.Clone(manifestMagic))
	for _, p := range payloads {
		writeRecords(out, []record{{typ: recManifest, payload: p}})
	}
	return out.Bytes()
}

// verdictClass names the error class of a verdict: clean, a stale counter or
// a rollback (ErrBadCounter), tampering (ErrTampered), or something else.
func verdictClass(err error) string {
	switch {
	case err == nil:
		return "clean"
	case errors.Is(err, ErrBadCounter):
		return "ErrBadCounter"
	case errors.Is(err, ErrTampered):
		return "ErrTampered"
	}
	return "other"
}

// TestShardRecoveryMatchesVerify holds the set rule's two drivers to one
// verdict over a table of damaged sets. Each set is two shards under one
// f = 1 counter group that outlives the restart: six appends to shard 0, then
// a manifest attesting shard 0 at seq 6. Each row damages the closed set, and
// at counter lags 0 and 1 the tolerant VerifyPath and RecoverSharded (with
// that RecoverMaxLag) judge it. Recovery succeeds exactly when the verifier
// does, and fails with the same error class; a refused recovery leaves every
// file byte-identical; a successful one holds the verifier's entries and,
// after one more append and a manifest, verifies strictly — so no row turns
// clean through a restart.
func TestShardRecoveryMatchesVerify(t *testing.T) {
	type set struct {
		dir      string
		shard0   []int64 // shard 0's size after each append, the magic first
		creation int64   // the sidecar's size after the creation manifest
	}
	cut := func(t *testing.T, path string, size int64) {
		t.Helper()
		if err := os.Truncate(path, size); err != nil {
			t.Fatal(err)
		}
	}
	shardPath := func(s set, k int) string { return filepath.Join(s.dir, ShardName("git", k)+".lseal") }
	sidecar := func(s set) string { return filepath.Join(s.dir, ManifestFileName("git")) }
	rows := []struct {
		name   string
		more   bool // one more append to shard 0 after the manifest
		mid    bool // a manifest after the third append too
		tamper func(t *testing.T, s set)
	}{
		{name: "untouched", tamper: func(*testing.T, set) {}},
		{name: "rollback behind the manifest", tamper: func(t *testing.T, s set) {
			cut(t, shardPath(s, 0), s.shard0[5])
		}},
		{name: "rollback behind the manifest, sidecar deleted", tamper: func(t *testing.T, s set) {
			cut(t, shardPath(s, 0), s.shard0[5])
			if err := os.Remove(sidecar(s)); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "torn tail past the manifest", more: true, tamper: func(t *testing.T, s set) {
			cut(t, shardPath(s, 0), s.shard0[6]+3)
		}},
		{name: "sidecar cut to its creation manifest", tamper: func(t *testing.T, s set) {
			cut(t, sidecar(s), s.creation)
		}},
		{name: "middle manifest deleted", mid: true, tamper: func(t *testing.T, s set) {
			rewriteSidecar(t, sidecar(s), func(ps [][]byte) [][]byte { return slices.Delete(ps, 1, 2) })
		}},
		{name: "shard files swapped", tamper: func(t *testing.T, s set) {
			tmp := shardPath(s, 0) + ".swap"
			for _, mv := range [][2]string{{shardPath(s, 0), tmp}, {shardPath(s, 1), shardPath(s, 0)}, {tmp, shardPath(s, 1)}} {
				if err := os.Rename(mv[0], mv[1]); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "shard file deleted", tamper: func(t *testing.T, s set) {
			if err := os.Remove(shardPath(s, 1)); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "shard file added", tamper: func(t *testing.T, s set) {
			b, err := os.ReadFile(shardPath(s, 1))
			if err == nil {
				err = os.WriteFile(shardPath(s, 2), b, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}},
		{name: "byte flipped in a signed prefix", tamper: func(t *testing.T, s set) {
			b, err := os.ReadFile(shardPath(s, 0))
			if err != nil {
				t.Fatal(err)
			}
			b[(s.shard0[1]+s.shard0[2])/2] ^= 0x01
			if err := os.WriteFile(shardPath(s, 0), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, row := range rows {
		for _, lag := range []uint64{0, 1} {
			t.Run(fmt.Sprintf("%s/lag=%d", row.name, lag), func(t *testing.T) {
				e := newAuditEnv(t)
				pub := e.encl.PublicKey()
				cfg := e.shardConfig("git", 2)
				s := set{dir: e.dir}
				size := func(path string) int64 {
					fi, err := os.Stat(path)
					if err != nil {
						t.Fatal(err)
					}
					return fi.Size()
				}
				e.call(t, func(env *asyncall.Env) error {
					l, err := NewSharded(env, cfg)
					if err != nil {
						return err
					}
					defer l.Close()
					s.creation = size(sidecar(s))
					s.shard0 = append(s.shard0, size(shardPath(s, 0)))
					appends := 6
					for i := 0; i < appends+1; i++ {
						if i == 3 && row.mid {
							if err := l.WriteManifest(env); err != nil {
								return err
							}
						}
						if i == appends {
							if err := l.WriteManifest(env); err != nil || !row.more {
								return err
							}
						}
						if err := l.Append(env, keyForShard(l, 0), "updates", i, "r", "main", fmt.Sprintf("c%d", i), "update"); err != nil {
							return err
						}
						s.shard0 = append(s.shard0, size(shardPath(s, 0)))
					}
					return nil
				})
				row.tamper(t, s)
				before := dirFiles(t, e.dir)

				rep, verr := VerifyPath(context.Background(), e.dir, StreamOptions{VerifyOptions: VerifyOptions{
					Pub: pub, Protector: e.group, RecoverTruncated: true, MaxCounterLag: lag,
				}})
				rcfg := cfg
				rcfg.RecoverMaxLag = lag
				var rec *ShardedLog
				rerr := e.bridge.Call(func(env *asyncall.Env) (err error) {
					rec, err = RecoverSharded(env, rcfg, pub)
					return err
				})
				t.Logf("tolerant verify: %v; recovery: %v", verr, rerr)
				if verdictClass(verr) != verdictClass(rerr) {
					t.Fatalf("tolerant verify is %s (%v), recovery %s (%v)", verdictClass(verr), verr, verdictClass(rerr), rerr)
				}
				if rerr != nil {
					if !maps.EqualFunc(before, dirFiles(t, e.dir), bytes.Equal) {
						t.Fatal("a refused recovery changed the files")
					}
					return
				}
				if got := rec.Seq(); got != uint64(rep.TotalEntries) {
					t.Fatalf("recovered %d entries, the verifier accepted %d", got, rep.TotalEntries)
				}
				e.call(t, func(env *asyncall.Env) error {
					defer rec.Close()
					if err := rec.Append(env, keyForShard(rec, 1), "updates", 99, "r", "dev", "c99", "create"); err != nil {
						return err
					}
					return rec.WriteManifest(env)
				})
				strict, err := e.verifyDir(VerifyOptions{Pub: pub, Protector: e.group})
				t.Logf("strict verify after recovery, one append and a manifest: %v", err)
				if err != nil {
					t.Fatalf("strict verify after recovery: %v", err)
				}
				if strict.TotalEntries != rep.TotalEntries+1 {
					t.Fatalf("strict verify after recovery: %d entries, want the %d recovered and one more", strict.TotalEntries, rep.TotalEntries)
				}
			})
		}
	}
}

// TestCreateCrashPoints kills the process at every file-system operation
// NewSharded issues for a two-shard set: from that operation on every
// operation fails without touching the disk. A restart then decides as
// libseal-server and Open do — HasLogSet: resume the set, else create one —
// and whichever it runs succeeds, takes appends and verifies strictly.
func TestCreateCrashPoints(t *testing.T) {
	for _, p := range runCreateCrashPoint(t, noCrash, false) {
		for _, torn := range []bool{false, true} {
			if torn && p.op != "Write" {
				continue
			}
			t.Run(fmt.Sprintf("%s/%d-%s/torn=%v", p.file, p.n, p.op, torn), func(t *testing.T) {
				runCreateCrashPoint(t, p, torn)
			})
		}
	}
}

// runCreateCrashPoint creates a two-shard set with the death at failAt
// armed, restarts on what is left, and returns the operations the creation
// issued.
func runCreateCrashPoint(t *testing.T, failAt crashPoint, torn bool) []crashPoint {
	e := newAuditEnv(t)
	pub := e.encl.PublicKey()
	fs := &crashFS{perFile: true, failAt: failAt, torn: torn, die: true}
	cfg := e.shardConfig("git", 2)
	cfg.FS = fs
	var ops []crashPoint
	err := e.bridge.Call(func(env *asyncall.Env) error {
		s, err := NewSharded(env, cfg)
		fs.mu.Lock()
		ops = fs.ops
		fs.mu.Unlock()
		if err != nil {
			return err
		}
		return s.Close()
	})
	if failAt.n < 0 && err != nil {
		t.Fatalf("clean creation: %v", err)
	}

	// A crash between the manifest counter's increment and the creation
	// manifest's write leaves the sidecar one behind it.
	rcfg := e.shardConfig("git", 2)
	rcfg.RecoverMaxLag = 1
	resumed := HasLogSet(e.dir, "git")
	var s *ShardedLog
	e.call(t, func(env *asyncall.Env) (err error) {
		if resumed {
			s, err = RecoverSharded(env, rcfg, pub)
		} else {
			s, err = NewSharded(env, rcfg)
		}
		if err != nil {
			return fmt.Errorf("restart (resumed = %v): %w", resumed, err)
		}
		defer s.Close()
		for k := 0; k < 2; k++ {
			if err := s.Append(env, keyForShard(s, k), "updates", k, fmt.Sprintf("r%d", k), "main", fmt.Sprintf("c%d", k), "create"); err != nil {
				return err
			}
		}
		return s.WriteManifest(env)
	})
	rep, err := e.verifyDir(VerifyOptions{Pub: pub, Protector: e.group})
	if err != nil || rep.TotalEntries != 2 {
		t.Fatalf("strict verify after the restart (resumed = %v): %v", resumed, err)
	}
	return ops
}
