package audit

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/sqldb"
)

// shardConfig returns a sharded disk config. ManifestEvery is set far in
// the future so manifests appear only at creation, explicit WriteManifest
// calls and trims — keeping the tests deterministic.
func (e *auditEnv) shardConfig(name string, shards int) ShardedConfig {
	return ShardedConfig{Config: e.diskConfig(name), Shards: shards, ManifestEvery: time.Hour}
}

func (e *auditEnv) verifyDir(opts VerifyOptions) (*Report, error) {
	return VerifyPath(context.Background(), e.dir, StreamOptions{
		VerifyOptions: opts,
		OnSegment:     func(SegmentInfo) error { return nil },
	})
}

// keyForShard finds a connection key the sharded log routes to shard k.
func keyForShard(s *ShardedLog, k int) uint64 {
	for key := uint64(0); ; key++ {
		if s.ShardFor(key) == k {
			return key
		}
	}
}

// TestShardedAppendVerify drives concurrent appends over many connection
// keys across four shards and checks the invariants the design rests on:
// the aggregate sequence number, the on-disk layout (shard files plus one
// manifest sidecar), a passing whole-set verification, and per-connection
// order preserved within each shard stream.
func TestShardedAppendVerify(t *testing.T) {
	e := newAuditEnv(t)
	var s *ShardedLog
	e.call(t, func(env *asyncall.Env) error {
		var err error
		s, err = NewSharded(env, e.shardConfig("git", 4))
		return err
	})

	const keys = 16
	const perKey = 5
	var wg sync.WaitGroup
	errs := make([]error, keys)
	for c := 0; c < keys; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perKey; i++ {
				err := e.bridge.Call(func(env *asyncall.Env) error {
					return s.Append(env, uint64(c), "updates", i, fmt.Sprintf("key%d", c), "main", fmt.Sprintf("c%d-%d", c, i), "update")
				})
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("key %d: %v", c, err)
		}
	}
	if s.Seq() != keys*perKey {
		t.Fatalf("aggregate seq = %d, want %d", s.Seq(), keys*perKey)
	}
	e.call(t, func(env *asyncall.Env) error { return s.WriteManifest(env) })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for k := 0; k < 4; k++ {
		if _, err := os.Stat(filepath.Join(e.dir, ShardName("git", k)+".lseal")); err != nil {
			t.Fatalf("shard file %d: %v", k, err)
		}
	}
	if _, err := os.Stat(filepath.Join(e.dir, ManifestFileName("git"))); err != nil {
		t.Fatalf("manifest sidecar: %v", err)
	}

	// Verify the set, collecting every entry per shard to check ordering.
	var mu sync.Mutex
	perShard := make(map[int][]*Entry)
	res, err := VerifyPath(context.Background(), e.dir, StreamOptions{
		VerifyOptions: VerifyOptions{Pub: e.encl.PublicKey(), Protector: e.group},
		OnSegment: func(si SegmentInfo) error {
			mu.Lock()
			perShard[si.Shard] = append(perShard[si.Shard], si.Entries()...)
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatalf("sharded verify: %v", err)
	}
	if len(res.Shards) != 4 {
		t.Fatalf("shards=%d, want 4", len(res.Shards))
	}
	if res.TotalEntries != keys*perKey {
		t.Fatalf("TotalEntries = %d, want %d", res.TotalEntries, keys*perKey)
	}
	if res.Manifests < 2 { // creation manifest + explicit WriteManifest
		t.Fatalf("Manifests = %d, want >= 2", res.Manifests)
	}
	if res.Tables["updates"] != keys*perKey {
		t.Fatalf("Tables = %v", res.Tables)
	}
	// One connection's entries all land in one shard, in staged order: the
	// per-key time column (values[0]) must be strictly increasing within the
	// shard's delivered stream.
	lastTime := map[string]int64{}
	seenIn := map[string]int{}
	total := 0
	for k, entries := range perShard {
		for _, en := range entries {
			key := en.Values[1].TextVal()
			if prev, ok := seenIn[key]; ok && prev != k {
				t.Fatalf("key %s split across shards %d and %d", key, prev, k)
			}
			seenIn[key] = k
			tv := en.Values[0].Int64()
			if last, ok := lastTime[key]; ok && tv <= last {
				t.Fatalf("key %s out of order in shard %d: %d after %d", key, k, tv, last)
			}
			lastTime[key] = tv
			total++
		}
	}
	if total != keys*perKey {
		t.Fatalf("streamed %d entries, want %d", total, keys*perKey)
	}
}

// TestShardedOneShardLayout pins the one layout: a disk set of one shard —
// Shards 0 or 1 — is shard 0's file and the manifest sidecar, nothing else,
// and verifies as a set whose manifests reach past the creation epoch.
func TestShardedOneShardLayout(t *testing.T) {
	for _, shards := range []int{0, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := newAuditEnv(t)
			var s *ShardedLog
			e.call(t, func(env *asyncall.Env) error {
				var err error
				s, err = NewSharded(env, e.shardConfig("git", shards))
				if err != nil {
					return err
				}
				if err := s.Append(env, 7, "updates", 1, "r", "main", "c1", "update"); err != nil {
					return err
				}
				return s.WriteManifest(env)
			})
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			ents, err := os.ReadDir(e.dir)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, d := range ents {
				names = append(names, d.Name())
			}
			if want := []string{"git-shard0.lseal", ManifestFileName("git")}; fmt.Sprint(names) != fmt.Sprint(want) {
				t.Fatalf("files %v, want %v", names, want)
			}
			res, err := e.verifyDir(VerifyOptions{Pub: e.encl.PublicKey(), Protector: e.group})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Shards) != 1 || res.TotalEntries != 1 || res.Manifests != 2 || res.Epoch < 1 {
				t.Fatalf("shards=%d entries=%d manifests=%d epoch=%d; want 1, 1, 2 and epoch >= 1",
					len(res.Shards), res.TotalEntries, res.Manifests, res.Epoch)
			}
		})
	}
}

// TestShardRollbackDetectedByManifest is the PR's core security regression:
// rolling one shard back to an earlier — internally consistent, correctly
// signed — prefix of itself must fail whole-set verification offline (nil
// protector), because later epoch manifests attest a commit point the
// truncated shard no longer holds. Restoring the full shard file makes the
// same offline verification pass.
func TestShardRollbackDetectedByManifest(t *testing.T) {
	e := newAuditEnv(t)
	var s *ShardedLog
	e.call(t, func(env *asyncall.Env) error {
		var err error
		s, err = NewSharded(env, e.shardConfig("git", 2))
		return err
	})
	k0 := keyForShard(s, 0)
	k1 := keyForShard(s, 1)
	shard0 := filepath.Join(e.dir, ShardName("git", 0)+".lseal")

	e.call(t, func(env *asyncall.Env) error {
		if err := s.Append(env, k0, "updates", 1, "r", "main", "c1", "update"); err != nil {
			return err
		}
		return s.Append(env, k1, "updates", 2, "r", "main", "c2", "update")
	})
	// Snapshot shard 0 at a commit point: an entirely valid earlier image.
	rolledBack, err := os.ReadFile(shard0)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0 advances, and a manifest binds its new state cross-shard.
	e.call(t, func(env *asyncall.Env) error {
		if err := s.Append(env, k0, "updates", 3, "r", "main", "c3", "update"); err != nil {
			return err
		}
		return s.WriteManifest(env)
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(shard0)
	if err != nil {
		t.Fatal(err)
	}

	// Offline verification options: no protector, so the only rollback
	// evidence is in the files themselves.
	offline := VerifyOptions{Pub: e.encl.PublicKey()}

	// The intact set verifies offline. The run leaves a checkpoint sidecar at
	// each shard's last commit point — exactly the states the last manifest
	// attests.
	if _, err := VerifyPath(context.Background(), e.dir, StreamOptions{
		VerifyOptions: offline, Checkpoint: &CheckpointConfig{EverySegments: 1},
	}); err != nil {
		t.Fatalf("intact set: %v", err)
	}

	// Roll shard 0 back. Its own chain and signatures still verify — only
	// the manifest replay can notice.
	if err := os.WriteFile(shard0, rolledBack, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := verifyFile(shard0, VerifyOptions{Pub: e.encl.PublicKey()}); err != nil {
		t.Fatalf("rolled-back shard should pass single-file verification: %v", err)
	}
	_, err = e.verifyDir(offline)
	if !errors.Is(err, ErrBadCounter) {
		t.Fatalf("rolled-back shard: err = %v, want ErrBadCounter", err)
	}
	if want := "shard rolled back"; err == nil || !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not name the rollback", err)
	}
	// Resuming changes nothing: shard 0's sidecar no longer matches its
	// file, and a stale sidecar — unauthenticated bytes the provider could
	// as well have forged — must not lend the rolled-back shard the commit
	// point it records.
	if _, err := VerifyPath(context.Background(), e.dir, StreamOptions{
		VerifyOptions: offline, ResumeAuto: true,
	}); !errors.Is(err, ErrBadCounter) {
		t.Fatalf("rolled-back shard beside a stale checkpoint: err = %v, want ErrBadCounter", err)
	}

	// Restore the full image: offline verification passes again.
	if err := os.WriteFile(shard0, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := e.verifyDir(offline); err != nil {
		t.Fatalf("restored set: %v", err)
	}
}

// TestShardedManifestSidecarStripped checks that deleting or emptying the
// manifest sidecar of a sharded set is itself tampering.
func TestShardedManifestSidecarStripped(t *testing.T) {
	e := newAuditEnv(t)
	var s *ShardedLog
	e.call(t, func(env *asyncall.Env) error {
		var err error
		s, err = NewSharded(env, e.shardConfig("git", 2))
		if err != nil {
			return err
		}
		return s.Append(env, 1, "updates", 1, "r", "main", "c1", "update")
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(e.dir, ManifestFileName("git"))

	// Truncate the sidecar to just its magic: no manifests left.
	if err := os.WriteFile(manifest, []byte(manifestMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := e.verifyDir(VerifyOptions{Pub: e.encl.PublicKey()}); !errors.Is(err, ErrTampered) {
		t.Fatalf("stripped sidecar: err = %v, want ErrTampered", err)
	}

	// Removing it entirely leaves two shard files and no manifest: tampering
	// too.
	if err := os.Remove(manifest); err != nil {
		t.Fatal(err)
	}
	if _, err := e.verifyDir(VerifyOptions{Pub: e.encl.PublicKey()}); !errors.Is(err, ErrTampered) {
		t.Fatalf("missing sidecar: err = %v, want ErrTampered", err)
	}
}

// TestManifestLinks: a sidecar's records are linked, so a record deleted or
// altered anywhere in it fails the replay by name under every offline driver
// — VerifyPath strict and tolerant, and RecoverSharded, which leaves the files
// as they were — and the ECDSA check of an intact sidecar is one, on its last
// record. A record whose signature bytes were altered breaks the next
// record's link, and one locate pass names the altered record itself, the
// record a live follower checking each arrival refuses.
func TestManifestLinks(t *testing.T) {
	rows := []struct {
		name, want string
		locates    int64
		edit       func(payloads [][]byte) [][]byte
	}{
		{name: "untouched", edit: func(ps [][]byte) [][]byte { return ps }},
		{name: "middle manifest deleted", want: "manifest 2 (epoch 4): link mismatch",
			edit: func(ps [][]byte) [][]byte { return slices.Delete(ps, 2, 3) }},
		{name: "first manifest deleted", want: "manifest 0 (epoch 2): link mismatch",
			edit: func(ps [][]byte) [][]byte { return ps[1:] }},
		{name: "middle manifest's signature altered", want: "manifest 1 (epoch 2): signature invalid", locates: 1,
			edit: func(ps [][]byte) [][]byte { ps[1][len(ps[1])-1] ^= 0xff; return ps }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := newAuditEnv(t)
			cfg := e.shardConfig("git", 2)
			e.call(t, func(env *asyncall.Env) error {
				s, err := NewSharded(env, cfg)
				if err != nil {
					return err
				}
				defer s.Close()
				for i := 0; i < 6; i++ {
					if err := s.Append(env, uint64(i), "updates", i, "r", "main", fmt.Sprintf("c%d", i), "update"); err != nil {
						return err
					}
					if i%2 == 1 {
						if err := s.WriteManifest(env); err != nil {
							return err
						}
					}
				}
				return nil
			})
			path := filepath.Join(e.dir, ManifestFileName("git"))
			rewriteSidecar(t, path, row.edit)
			before := dirFiles(t, e.dir)
			pub := e.encl.PublicKey()
			for _, tolerant := range []bool{false, true} {
				var rep *Report
				var err error
				checks, locates := signatureChecks(func() {
					rep, err = e.verifyDir(VerifyOptions{Pub: pub, Protector: e.group, RecoverTruncated: tolerant})
				})
				if row.want == "" {
					if err != nil || rep.Manifests != 4 || checks != 3 || locates != 0 {
						t.Fatalf("tolerant=%v: %v, %d manifests, %d ECDSA checks, %d locate passes; want 4 manifests, 3 checks (2 shards, 1 sidecar), 0 locates",
							tolerant, err, rep.Manifests, checks, locates)
					}
					continue
				}
				if !errors.Is(err, ErrTampered) || !strings.HasSuffix(err.Error(), row.want) || locates != row.locates {
					t.Fatalf("tolerant=%v: %v with %d locate passes, want ErrTampered ending %q with %d", tolerant, err, locates, row.want, row.locates)
				}
			}
			var rec *ShardedLog
			err := e.bridge.Call(func(env *asyncall.Env) (err error) {
				rec, err = RecoverSharded(env, cfg, pub)
				return err
			})
			if row.want == "" {
				if err != nil {
					t.Fatalf("recovery: %v", err)
				}
				rec.Close()
				return
			}
			if !errors.Is(err, ErrTampered) || !strings.HasSuffix(err.Error(), row.want) {
				t.Fatalf("recovery: %v, want ErrTampered ending %q", err, row.want)
			}
			if !maps.EqualFunc(before, dirFiles(t, e.dir), bytes.Equal) {
				t.Fatal("a refused recovery changed the files")
			}
		})
	}
}

// TestManifestFormerFormatRefused: a sidecar of the format before manifests
// were linked (LIBSEALMAN1) is refused by name by both sidecar readers and
// every set driver, not lumped in with garbage.
func TestManifestFormerFormatRefused(t *testing.T) {
	e := newAuditEnv(t)
	cfg := e.shardConfig("git", 1)
	e.call(t, func(env *asyncall.Env) error {
		s, err := NewSharded(env, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		return s.Append(env, 1, "updates", 1, "r", "main", "c1", "update")
	})
	path := filepath.Join(e.dir, ManifestFileName("git"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(raw, "LIBSEALMAN1\n")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "manifest format 1 is not supported; this build reads format 2"
	check := func(who string, err error) {
		t.Helper()
		if !errors.Is(err, ErrTampered) || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: %v, want ErrTampered naming %q", who, err, want)
		}
	}
	_, err = readManifests(raw, true)
	check("readManifests", err)
	check("IncrementalManifestReader", newIncrementalManifestReader(func(*Manifest, record) error { return nil }).Feed(raw))
	for _, tolerant := range []bool{false, true} {
		_, err = e.verifyDir(VerifyOptions{Pub: e.encl.PublicKey(), RecoverTruncated: tolerant})
		check(fmt.Sprintf("VerifyPath (tolerant=%v)", tolerant), err)
	}
	check("RecoverSharded", e.bridge.Call(func(env *asyncall.Env) error {
		_, err := RecoverSharded(env, cfg, e.encl.PublicKey())
		return err
	}))
}

// TestShardedTrimPartition trims a sharded log and checks the survivors are
// re-partitioned, re-sequenced and re-verifiable, with the manifest sidecar
// rewritten to attest the post-trim states.
func TestShardedTrimPartition(t *testing.T) {
	e := newAuditEnv(t)
	var s *ShardedLog
	e.call(t, func(env *asyncall.Env) error {
		var err error
		s, err = NewSharded(env, e.shardConfig("git", 3))
		if err != nil {
			return err
		}
		for i := 0; i < 30; i++ {
			if err := s.Append(env, uint64(i%7), "updates", i, "r", "main", fmt.Sprintf("c%d", i), "update"); err != nil {
				return err
			}
		}
		return trimSet(env, s, []string{"DELETE FROM updates WHERE time < 20"})
	})
	if s.Seq() != 10 {
		t.Fatalf("post-trim aggregate seq = %d, want 10", s.Seq())
	}
	res, err := s.Query("SELECT COUNT(*) FROM updates")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int64(); got != 10 {
		t.Fatalf("post-trim rows = %d, want 10", got)
	}
	// The trimmed log keeps appending.
	e.call(t, func(env *asyncall.Env) error {
		return s.Append(env, 3, "updates", 99, "r", "main", "c99", "update")
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	vres, err := e.verifyDir(VerifyOptions{Pub: e.encl.PublicKey(), Protector: e.group})
	if err != nil {
		t.Fatalf("post-trim verify: %v", err)
	}
	if vres.TotalEntries != 11 {
		t.Fatalf("post-trim verified entries = %d, want 11", vres.TotalEntries)
	}
}

// TestApplyTrimKeepsEntriesAppendedSincePlan: a trim planned on a snapshot
// and applied after more appends leaves the database with what the plan kept
// of the captured rows plus every entry appended since, and the files as they
// were; the compaction after it rewrites the set to exactly those rows, all
// verifiable; a plan the database refuses as stale rewrites nothing.
func TestApplyTrimKeepsEntriesAppendedSincePlan(t *testing.T) {
	e := newAuditEnv(t)
	var s *ShardedLog
	appendUpdates := func(env *asyncall.Env, from, to int) error {
		for i := from; i < to; i++ {
			if err := s.Append(env, uint64(i%7), "updates", i, "r", "main", fmt.Sprintf("c%d", i), "update"); err != nil {
				return err
			}
		}
		return nil
	}
	var plan, stale *sqldb.TrimPlan
	e.call(t, func(env *asyncall.Env) error {
		var err error
		if s, err = NewSharded(env, e.shardConfig("git", 2)); err != nil {
			return err
		}
		if err := appendUpdates(env, 0, 10); err != nil {
			return err
		}
		all, err := s.DB().PrepareScript("DELETE FROM updates")
		if err != nil {
			return err
		}
		if plan, err = s.DB().Snapshot().PlanTrim(all); err != nil {
			return err
		}
		if stale, err = s.DB().Snapshot().PlanTrim(all); err != nil {
			return err
		}
		if err := appendUpdates(env, 10, 14); err != nil {
			return err
		}
		if err := s.ApplyTrim(env, plan); err != nil {
			return err
		}
		if s.Seq() != 14 {
			return fmt.Errorf("the database trim moved the files: seq %d, want all 14 entries", s.Seq())
		}
		return s.Compact(env)
	})
	if plan.Deleted() != 10 || s.Seq() != 4 {
		t.Fatalf("plan deleted %d rows, post-trim seq = %d; want 10 and the 4 entries appended since", plan.Deleted(), s.Seq())
	}
	res, err := s.Query("SELECT MIN(time), COUNT(*) FROM updates")
	if err != nil || res.Rows[0][0].Int64() != 10 || res.Rows[0][1].Int64() != 4 {
		t.Fatalf("post-trim rows = %v, %v; want times 10..13", res, err)
	}
	gen := s.Generation()
	err = e.bridge.Call(func(env *asyncall.Env) error { return s.ApplyTrim(env, stale) })
	if !errors.Is(err, sqldb.ErrTrimStale) {
		t.Fatalf("ApplyTrim(stale plan) = %v, want ErrTrimStale", err)
	}
	if s.Generation() != gen {
		t.Fatal("the set's files were rewritten by a refused trim")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	vres, err := e.verifyDir(VerifyOptions{Pub: e.encl.PublicKey(), Protector: e.group})
	if err != nil || vres.TotalEntries != 4 {
		t.Fatalf("post-trim verify: %+v, %v; want 4 entries", vres, err)
	}
}

// TestShardedRecover closes a sharded log and reopens it with
// RecoverSharded: sequence numbers, epoch continuity and appendability must
// survive, and the recovered set must verify.
func TestShardedRecover(t *testing.T) {
	e := newAuditEnv(t)
	cfg := e.shardConfig("git", 2)
	var s *ShardedLog
	e.call(t, func(env *asyncall.Env) error {
		var err error
		s, err = NewSharded(env, cfg)
		if err != nil {
			return err
		}
		for i := 0; i < 6; i++ {
			if err := s.Append(env, uint64(i), "updates", i, "r", "main", fmt.Sprintf("c%d", i), "update"); err != nil {
				return err
			}
		}
		return s.WriteManifest(env)
	})
	epochBefore := s.Epoch()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var r *ShardedLog
	e.call(t, func(env *asyncall.Env) error {
		var err error
		r, err = RecoverSharded(env, cfg, e.encl.PublicKey())
		return err
	})
	if r.Seq() != 6 {
		t.Fatalf("recovered seq = %d, want 6", r.Seq())
	}
	if r.Epoch() <= epochBefore {
		t.Fatalf("recovered epoch = %d, want > %d", r.Epoch(), epochBefore)
	}
	e.call(t, func(env *asyncall.Env) error {
		if err := r.Append(env, 1, "updates", 6, "r", "main", "c6", "update"); err != nil {
			return err
		}
		return r.WriteManifest(env)
	})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := e.verifyDir(VerifyOptions{Pub: e.encl.PublicKey(), Protector: e.group})
	if err != nil {
		t.Fatalf("post-recovery verify: %v", err)
	}
	if res.TotalEntries != 7 {
		t.Fatalf("entries = %d, want 7", res.TotalEntries)
	}
}

// TestShardedVerifyResumeAuto checks the checkpoint/resume plumbing over a
// sharded set: a first verification writes per-shard sidecars, a second one
// with ResumeAuto resumes from them (including manifest replay against the
// checkpointed base) and reports whole-set totals.
func TestShardedVerifyResumeAuto(t *testing.T) {
	e := newAuditEnv(t)
	var s *ShardedLog
	e.call(t, func(env *asyncall.Env) error {
		var err error
		s, err = NewSharded(env, e.shardConfig("git", 2))
		if err != nil {
			return err
		}
		for i := 0; i < 20; i++ {
			if err := s.Append(env, uint64(i%5), "updates", i, "r", "main", fmt.Sprintf("c%d", i), "update"); err != nil {
				return err
			}
		}
		return s.WriteManifest(env)
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	opts := StreamOptions{
		VerifyOptions: VerifyOptions{Pub: e.encl.PublicKey(), Protector: e.group},
		Checkpoint:    &CheckpointConfig{EverySegments: 1},
		OnSegment:     func(SegmentInfo) error { return nil },
	}
	cold, err := VerifyPath(context.Background(), e.dir, opts)
	if err != nil {
		t.Fatalf("cold verify: %v", err)
	}
	for k := 0; k < 2; k++ {
		ckpt := filepath.Join(e.dir, ShardName("git", k)+".lseal.ckpt")
		c, err := LoadCheckpoint(ckpt)
		if err != nil {
			t.Fatalf("shard %d checkpoint: %v", k, err)
		}
		if c.Shard != k {
			t.Fatalf("shard %d checkpoint records shard %d", k, c.Shard)
		}
	}

	opts.ResumeAuto = true
	warm, err := VerifyPath(context.Background(), e.dir, opts)
	if err != nil {
		t.Fatalf("resumed verify: %v", err)
	}
	if !warm.Resumed {
		t.Fatal("resumed run not marked Resumed")
	}
	if warm.TotalEntries != cold.TotalEntries || warm.TotalBatches != cold.TotalBatches {
		t.Fatalf("resumed totals %d/%d != cold %d/%d",
			warm.TotalEntries, warm.TotalBatches, cold.TotalEntries, cold.TotalBatches)
	}
	if warm.Manifests != cold.Manifests || warm.Epoch != cold.Epoch {
		t.Fatalf("resumed manifests %d/%d != cold %d/%d",
			warm.Manifests, warm.Epoch, cold.Manifests, cold.Epoch)
	}
}

// TestShardedVerifyResumeUnvouched: a checkpoint sidecar is the provider's
// file, and the shard file it sits beside authenticates only its chain head
// and counter — not its Seq, not which shard's history it is. So a resumed
// shard's checkpoint counts only once a manifest vouches for it, and neither
// edit below turns a rolled-back set clean: a forged Seq on a truncated
// shard's sidecar, or shard 1's file copied over shard 0's, which leaves
// shard 0 a sidecar of shard 1's history with no edit at all. Offline, with
// the key alone, as `libseal-verify -resume` runs: each resumed run must
// reach the cold verdict.
func TestShardedVerifyResumeUnvouched(t *testing.T) {
	e := newAuditEnv(t)
	var s *ShardedLog
	e.call(t, func(env *asyncall.Env) (err error) {
		if s, err = NewSharded(env, e.shardConfig("git", 2)); err != nil {
			return err
		}
		for i := 0; i < 14; i++ { // six commits on shard 0, then eight on shard 1
			if err := s.Append(env, keyForShard(s, min(i/6, 1)), "updates", i, "r", "main", fmt.Sprintf("c%d", i), "update"); err != nil {
				return err
			}
		}
		return s.WriteManifest(env)
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	intact := readSetFiles(t, e.dir)
	offline := StreamOptions{VerifyOptions: VerifyOptions{Pub: e.encl.PublicKey()}}
	shard0, shard1 := ShardName("git", 0)+".lseal", ShardName("git", 1)+".lseal"
	var third int64 // shard 0's third commit point
	find := offline
	find.OnSegment = func(si SegmentInfo) error {
		if si.Shard == 0 && si.EndSeq == 3 {
			third = si.CommittedBytes
		}
		return nil
	}
	if _, err := VerifyPath(context.Background(), e.dir, find); err != nil || third == 0 {
		t.Fatalf("intact set: %v, third commit point at %d", err, third)
	}

	for _, c := range []struct {
		name string
		edit func(dir string) error
		// sidecar edits shard 0's checkpoint once a cold run has left it.
		sidecar func(c *Checkpoint)
	}{
		{"forged seq", func(dir string) error { return os.Truncate(filepath.Join(dir, shard0), third) },
			func(c *Checkpoint) { c.Seq = 1000 }},
		{"duplicated shard", func(dir string) error {
			return os.WriteFile(filepath.Join(dir, shard0), intact[shard1], 0o644)
		}, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := writeSetFiles(t, intact)
			if err := c.edit(dir); err != nil {
				t.Fatal(err)
			}
			_, cold := VerifyPath(context.Background(), dir, offline)
			if !errors.Is(cold, ErrBadCounter) || !strings.Contains(cold.Error(), "shard rolled back") {
				t.Fatalf("cold: %v, want the rollback named", cold)
			}
			ckpt := offline
			ckpt.Checkpoint = &CheckpointConfig{EverySegments: 1}
			if _, err := VerifyPath(context.Background(), dir, ckpt); err == nil || err.Error() != cold.Error() {
				t.Fatalf("checkpointing run: %v, want %v", err, cold)
			}
			side := filepath.Join(dir, shard0+".ckpt")
			ck, err := LoadCheckpoint(side)
			if err != nil {
				t.Fatalf("the checkpointing run left no sidecar for shard 0: %v", err)
			}
			if c.sidecar != nil {
				c.sidecar(ck)
				if err := ck.Save(side); err != nil {
					t.Fatal(err)
				}
			}
			resume := offline
			resume.ResumeAuto = true
			if rep, err := VerifyPath(context.Background(), dir, resume); err == nil || err.Error() != cold.Error() {
				t.Fatalf("resumed: %+v, %v; want the cold verdict %v", rep, err, cold)
			}
		})
	}
}

// TestManifestRoundtrip exercises the manifest codec directly: marshal,
// parse back, digest stability, and rejection of corrupted frames.
func TestManifestRoundtrip(t *testing.T) {
	m := &Manifest{
		Epoch:   7,
		Counter: 3,
		Prev:    [32]byte{5, 6},
		Shards: []ShardState{
			{Chain: [32]byte{1, 2}, Seq: 10, Counter: 4},
			{Chain: [32]byte{3, 4}, Seq: 12, Counter: 5},
		},
	}
	m.Sig.R = []byte{9}
	m.Sig.S = []byte{8}
	buf := marshalManifest(m)
	got, err := parseManifest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != m.Epoch || got.Counter != m.Counter || got.Prev != m.Prev || len(got.Shards) != 2 ||
		got.Shards[1] != m.Shards[1] || got.digest() != sha256.Sum256(buf) {
		t.Fatalf("roundtrip = %+v", got)
	}
	if !bytes.Equal(manifestDigest("git", m), manifestDigest("git", got)) {
		t.Fatal("digest not stable across roundtrip")
	}
	// The digest binds the log name: a sidecar transplanted from another
	// deployment must not verify.
	if bytes.Equal(manifestDigest("git", m), manifestDigest("other", m)) {
		t.Fatal("digest ignores the log name")
	}
	// It binds the link: a record cannot be moved behind another.
	relinked := *m
	relinked.Prev[0]++
	if bytes.Equal(manifestDigest("git", m), manifestDigest("git", &relinked)) {
		t.Fatal("digest ignores the link")
	}
	// Truncated and trailing-garbage payloads are rejected.
	if _, err := parseManifest(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if _, err := parseManifest(append(append([]byte{}, buf...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// A zero-shard manifest is meaningless.
	if _, err := parseManifest(marshalManifest(&Manifest{Epoch: 1, Sig: m.Sig})); err == nil {
		t.Fatal("zero-shard manifest accepted")
	}
}

// TestShardRouting pins the routing function: deterministic, stable across
// calls, single-shard sets always route to 0, and keys spread over shards.
func TestShardRouting(t *testing.T) {
	e := newAuditEnv(t)
	var s1, s4 *ShardedLog
	e.call(t, func(env *asyncall.Env) error {
		var err error
		if s4, err = NewSharded(env, e.shardConfig("git", 4)); err != nil {
			return err
		}
		cfg := e.shardConfig("solo", 1)
		cfg.Dir = filepath.Join(e.dir, "solo")
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return err
		}
		s1, err = NewSharded(env, cfg)
		return err
	})
	defer s4.Close()
	defer s1.Close()

	hit := make(map[int]int)
	for key := uint64(0); key < 256; key++ {
		k := s4.ShardFor(key)
		if k != s4.ShardFor(key) {
			t.Fatalf("unstable routing for key %d", key)
		}
		if k < 0 || k >= 4 {
			t.Fatalf("key %d routed to shard %d", key, k)
		}
		hit[k]++
		if s1.ShardFor(key) != 0 {
			t.Fatalf("single-shard set routed key %d to %d", key, s1.ShardFor(key))
		}
	}
	for k := 0; k < 4; k++ {
		if hit[k] == 0 {
			t.Fatalf("no keys routed to shard %d: %v", k, hit)
		}
	}
}

// TestShardWorkersSplit checks that a worker budget divided over a set's
// shards is spent in full — the remainder goes to the first shards — and
// that no shard is left without a verifier.
func TestShardWorkersSplit(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 5, 8} {
		for _, shards := range []int{1, 2, 4} {
			sum := 0
			for k := 0; k < shards; k++ {
				n := shardWorkers(workers, shards, k)
				if n < 1 {
					t.Errorf("workers=%d shards=%d: shard %d gets %d", workers, shards, k, n)
				}
				sum += n
			}
			if want := max(workers, shards); sum != want {
				t.Errorf("workers=%d shards=%d: %d verifiers in all, want %d", workers, shards, sum, want)
			}
		}
	}
}
