package audit

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"libseal/internal/asyncall"
)

// Every disk log is one layout — shard files plus the manifest sidecar — so
// the verifier never picks a layout from the files it is judging. These tests
// hand it what an untrusted provider could leave in the directory instead.

// writeLayoutSet writes a set of the given shard count holding two entries
// per shard under a manifest, then two more per shard under a second one. It
// returns the set's files as they were at the first manifest (every shard at
// an earlier commit point, the sidecar one record shorter) and at the end.
func writeLayoutSet(t *testing.T, e *auditEnv, shards int) (early, final map[string][]byte) {
	t.Helper()
	var s *ShardedLog
	e.call(t, func(env *asyncall.Env) (err error) {
		s, err = NewSharded(env, e.shardConfig("git", shards))
		return err
	})
	appendRound := func(round int) {
		e.call(t, func(env *asyncall.Env) error {
			for k := 0; k < s.Shards(); k++ {
				for i := 0; i < 2; i++ {
					tm := 10*round + 2*k + i
					if err := s.Append(env, keyForShard(s, k), "updates", tm, fmt.Sprintf("r%d", k), "main", fmt.Sprintf("c%d", tm), "update"); err != nil {
						return err
					}
				}
			}
			return s.WriteManifest(env)
		})
	}
	appendRound(0)
	early = readSetFiles(t, e.dir)
	appendRound(1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return early, readSetFiles(t, e.dir)
}

// readSetFiles reads every file of dir, by basename.
func readSetFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, d := range ents {
		if files[d.Name()], err = os.ReadFile(filepath.Join(dir, d.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// writeSetFiles writes files into a fresh directory and returns it.
func writeSetFiles(t *testing.T, files map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestShardFilesWithoutManifestRejected is the regression for a false clean:
// a two-shard set whose shard 1 and manifest were deleted used to verify as a
// single-file log of shard 0's entries, whatever the options; and a one-shard
// set without its manifest is the same attack on the smallest set.
func TestShardFilesWithoutManifestRejected(t *testing.T) {
	e := newAuditEnv(t)
	var s *ShardedLog
	e.call(t, func(env *asyncall.Env) (err error) {
		if s, err = NewSharded(env, e.shardConfig("git", 2)); err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			if err := s.Append(env, keyForShard(s, i%2), "updates", i, "r", "main", fmt.Sprintf("c%d", i), "update"); err != nil {
				return err
			}
		}
		return nil
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ShardName("git", 1) + ".lseal", ManifestFileName("git")} {
		if err := os.Remove(filepath.Join(e.dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	for _, prot := range []RollbackProtector{nil, e.group} {
		rep, err := e.verifyDir(VerifyOptions{Pub: e.encl.PublicKey(), Protector: prot})
		if !errors.Is(err, ErrTampered) {
			t.Errorf("shard 0 alone (protector %v): %+v, %v; want ErrTampered", prot != nil, rep, err)
		}
	}

	one := newAuditEnv(t)
	one.call(t, func(env *asyncall.Env) (err error) {
		if s, err = NewSharded(env, one.shardConfig("git", 1)); err != nil {
			return err
		}
		return s.Append(env, 0, "updates", 1, "r", "main", "c1", "update")
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(one.dir, ManifestFileName("git"))); err != nil {
		t.Fatal(err)
	}
	if rep, err := one.verifyDir(VerifyOptions{Pub: one.encl.PublicKey(), Protector: one.group}); !errors.Is(err, ErrTampered) {
		t.Fatalf("one-shard set without its manifest: %+v, %v; want ErrTampered", rep, err)
	}
}

// TestWholeFileOperationsRejected applies every whole-file operation a
// provider can perform on a set — drop a shard or the manifest, strip the
// manifest to its magic, swap two shards, put back a shard's or the
// manifest's earlier image — to one- and two-shard sets, and verifies each
// result cold and resumed from the checkpoints a run over the intact set left,
// with the enclave key and the live counter group. Every cell must be
// rejected (ErrTampered or ErrBadCounter); the one no-op, the set copied
// unchanged, must verify clean.
func TestWholeFileOperationsRejected(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := newAuditEnv(t)
			early, final := writeLayoutSet(t, e, shards)
			manifest := ManifestFileName("git")
			shard := func(k int) string { return ShardName("git", k) + ".lseal" }
			type op struct {
				name  string
				apply func(files map[string][]byte)
			}
			ops := []op{
				{"drop-manifest", func(f map[string][]byte) { delete(f, manifest) }},
				{"manifest-magic-only", func(f map[string][]byte) { f[manifest] = manifestMagic }},
				{"earlier-manifest", func(f map[string][]byte) { f[manifest] = early[manifest] }},
			}
			for k := 0; k < shards; k++ {
				ops = append(ops,
					op{fmt.Sprintf("drop-shard%d", k), func(f map[string][]byte) { delete(f, shard(k)) }},
					op{fmt.Sprintf("earlier-shard%d", k), func(f map[string][]byte) { f[shard(k)] = early[shard(k)] }},
				)
			}
			if shards == 2 {
				ops = append(ops, op{"swap-shards", func(f map[string][]byte) { f[shard(0)], f[shard(1)] = f[shard(1)], f[shard(0)] }})
			}
			opts := StreamOptions{
				VerifyOptions: VerifyOptions{Pub: e.encl.PublicKey(), Protector: e.group},
				OnSegment:     func(SegmentInfo) error { return nil },
			}
			// cell copies the intact set, checkpoints it when resumed, applies
			// the operation and returns the verdict on what is left.
			cell := func(apply func(map[string][]byte), resumed bool) (*Report, error) {
				dir := writeSetFiles(t, final)
				if resumed {
					ck := opts
					ck.Checkpoint = &CheckpointConfig{EverySegments: 1}
					if _, err := VerifyPath(context.Background(), dir, ck); err != nil {
						t.Fatalf("checkpointing run over the intact set: %v", err)
					}
				}
				files := readSetFiles(t, dir)
				apply(files)
				for name := range readSetFiles(t, dir) {
					if err := os.Remove(filepath.Join(dir, name)); err != nil {
						t.Fatal(err)
					}
				}
				for name, b := range files {
					if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				o := opts
				o.ResumeAuto = resumed
				return VerifyPath(context.Background(), dir, o)
			}
			for _, resumed := range []bool{false, true} {
				mode := map[bool]string{false: "cold", true: "resumed"}[resumed]
				rep, err := cell(func(map[string][]byte) {}, resumed)
				if err != nil || rep.TotalEntries != 4*shards || rep.Resumed != resumed {
					t.Fatalf("%s, set unchanged: %+v, %v; want clean with %d entries", mode, rep, err, 4*shards)
				}
				for _, o := range ops {
					rep, err := cell(o.apply, resumed)
					if !errors.Is(err, ErrTampered) && !errors.Is(err, ErrBadCounter) {
						t.Errorf("%s, %s: %+v, %v; want ErrTampered or ErrBadCounter", mode, o.name, rep, err)
					}
				}
			}
		})
	}
}
