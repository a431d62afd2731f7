package audit

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/sqldb"
	"libseal/internal/telemetry"
)

// trimDatabase runs query as a trim's database half on s — planned on a fresh
// snapshot, applied, no file touched — so that the test drives Compact itself.
func trimDatabase(t testing.TB, e *auditEnv, s *ShardedLog, query string) {
	t.Helper()
	stmts, err := s.DB().PrepareScript(query)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanTrim(s.DB().Snapshot(), stmts)
	if err != nil {
		t.Fatal(err)
	}
	e.call(t, func(env *asyncall.Env) error { return s.ApplyTrim(env, plan) })
}

// TestTrimCrashPoints enumerates every file-system operation the compaction
// after a trim of a two-shard set issues — for each shard and for the
// manifest: the staged image's Create, its Write at every record boundary,
// Sync and Close, the Rename, the old handle's Close and the reopen; and the
// directory syncs after the shards' renames and after the manifest's — and
// fails each in turn, tearing the writes as well: once as a failed call, which
// aborts the compaction before its first rename and fails the set closed
// after it, and once (death/…) as the process's death, after which no
// operation reaches the disk. Whatever fails, the files on disk
// verify strictly with every shard at exactly its pre-trim or its post-trim
// entries (so the manifest attests only images that are there, or the land a
// death interrupted is judged as recovery completes it), RecoverSharded and a
// strict Verify against the live counters agree, and a further append and
// trim converge.
func TestTrimCrashPoints(t *testing.T) {
	for _, p := range runTrimCrashPoint(t, noCrash, false, false) {
		for _, die := range []bool{false, true} {
			for _, torn := range []bool{false, true} {
				if torn && p.op != "Write" {
					continue
				}
				name := fmt.Sprintf("%s/%d-%s/torn=%v", p.file, p.n, p.op, torn)
				if die {
					name = "death/" + name
				}
				t.Run(name, func(t *testing.T) {
					runTrimCrashPoint(t, p, torn, die)
				})
			}
		}
	}
}

// runTrimCrashPoint trims a two-shard set holding three updates of one
// branch per shard, compacts it with the fault at failAt armed (die: as the
// process's death), checks what is left, and returns the operations the
// compaction issued.
func runTrimCrashPoint(t *testing.T, failAt crashPoint, torn, die bool) []crashPoint {
	e := newAuditEnv(t)
	pub := e.encl.PublicKey()
	fs := &crashFS{perFile: true, failAt: noCrash}
	cfg := e.shardConfig("git", 2)
	cfg.FS = fs
	var s *ShardedLog
	e.call(t, func(env *asyncall.Env) (err error) {
		if s, err = NewSharded(env, cfg); err != nil {
			return err
		}
		for i := 0; i < 6; i++ {
			if err := s.Append(env, keyForShard(s, i%2), "updates", i, fmt.Sprintf("r%d", i%2), "main", fmt.Sprintf("c%d", i), "update"); err != nil {
				return err
			}
		}
		// The sidecar attests the pre-trim states, which the compaction's
		// shard images no longer hold.
		return s.WriteManifest(env)
	})
	// Shard k holds c(k), c(k+2), c(k+4); the trim keeps the latest update of
	// each repo, c4 and c5, and deals them one per shard.
	before := [][]string{{"c0", "c2", "c4"}, {"c1", "c3", "c5"}}
	after := [][]string{{"c4"}, {"c5"}}
	shardsHold := func(when string) {
		t.Helper()
		for k := range before {
			entries, err := verifyFile(filepath.Join(e.dir, ShardName("git", k)+".lseal"), VerifyOptions{Pub: pub})
			if err != nil {
				t.Fatalf("%s: shard %d: %v", when, k, err)
			}
			var cids []string
			for _, en := range entries {
				cids = append(cids, en.Values[3].TextVal())
			}
			if !slices.Equal(cids, before[k]) && !slices.Equal(cids, after[k]) {
				t.Fatalf("%s: shard %d holds %v, neither its pre-trim %v nor its post-trim %v", when, k, cids, before[k], after[k])
			}
		}
	}
	verifySet := func(when string, lag uint64) {
		t.Helper()
		if _, err := e.verifyDir(VerifyOptions{Pub: pub, Protector: e.group, MaxCounterLag: lag}); err != nil {
			t.Fatalf("%s: strict verify: %v", when, err)
		}
	}

	trimDatabase(t, e, s, trimLatest)
	fs.mu.Lock()
	fs.seen, fs.ops, fs.failAt, fs.torn, fs.die = nil, nil, failAt, torn, die
	fs.mu.Unlock()
	err := e.bridge.Call(s.Compact)
	fs.mu.Lock()
	ops := fs.ops
	fs.failAt = noCrash
	fs.mu.Unlock()
	if failAt.n < 0 && err != nil {
		t.Fatalf("clean trim: %v", err)
	}
	// The set generation the feed streams under moves on with a land that
	// settled, is restored by one that moved nothing, and stays odd after one
	// that failed past its first rename.
	gen := uint64(0)
	if s.Seq() != 6 {
		gen = map[bool]uint64{true: 2, false: 1}[err == nil]
	}
	if g := s.Generation(); g != gen {
		t.Fatalf("set generation %d after the compaction (%v), want %d", g, err, gen)
	}
	// A failed call either aborted the compaction, which moved nothing, or
	// came past its first rename: then every file of the set failed closed,
	// and the set refuses appends and compactions until it is restarted.
	if !die && err != nil {
		moved := s.Seq() != 6
		for _, v := range s.Files() {
			if (v.f.failed != nil) != moved {
				t.Fatalf("%s failed closed: %v; the compaction moved the set: %v", filepath.Base(v.Path()), v.f.failed, moved)
			}
		}
		if moved {
			if err := e.bridge.Call(s.Compact); err == nil {
				t.Fatal("a set that failed closed compacted again")
			}
			if err := e.bridge.Call(func(env *asyncall.Env) error {
				return s.Append(env, keyForShard(s, 0), "updates", 9, "r0", "main", "lost", "update")
			}); err == nil {
				t.Fatal("a set that failed closed acknowledged an append")
			}
		}
	}
	// A death before the first rename leaves the values the compaction spent
	// uncarried: the lag a crash between increment and write leaves.
	shardsHold("after the trim")
	verifySet("after the trim", 1)
	s.Close()

	rcfg := e.shardConfig("git", 2)
	rcfg.RecoverMaxLag = 1
	var rec *ShardedLog
	e.call(t, func(env *asyncall.Env) (err error) {
		rec, err = RecoverSharded(env, rcfg, pub)
		return err
	})
	defer rec.Close()
	shardsHold("after recovery")
	verifySet("after recovery", 0)
	e.call(t, func(env *asyncall.Env) error {
		for k := 0; k < 2; k++ {
			if err := rec.Append(env, keyForShard(rec, k), "updates", 6+k, fmt.Sprintf("r%d", k), "main", fmt.Sprintf("c%d", 6+k), "update"); err != nil {
				return err
			}
		}
		return trimSet(env, rec, []string{trimLatest})
	})
	if rows, _ := rec.DB().TableRowCount("updates"); rows != 2 || rec.Seq() != 2 {
		t.Fatalf("after the converging trim: %d rows, %d entries; want the 2 latest updates", rows, rec.Seq())
	}
	verifySet("after the converging trim", 0)
	return ops
}

// TestTrimCrashPointsAbort: a compaction that fails before its first rename
// lands nothing. Three steps fail it — shard 1's anchor, the Sync of shard 0's
// staged image, the Sync of the sidecar's — each in one cell as a failed call
// (the compaction returns the error, and seq, chain and files move only by
// the records carrying the values it spent), in one more where the next
// append, on shard 0, then fails its write after its increment, in one where
// shard 0's carrying record fails its write instead (the file fails closed),
// and in a death cell at every later operation of the compaction and of that
// append (the others' staging included: it runs side by side with the step's).
// Whatever the cell, RecoverSharded at RecoverMaxLag 1 and a tolerant
// VerifyPath agree and succeed with every acknowledged row, and after one
// more append and a manifest the set verifies strictly.
func TestTrimCrashPointsAbort(t *testing.T) {
	// A successful compaction's operations: the first Sync of a file is its
	// staged image's.
	clean := runTrimCrashPoint(t, noCrash, false, false)
	stagedSync := func(file string) crashPoint {
		return clean[slices.IndexFunc(clean, func(p crashPoint) bool { return p.file == file && p.op == "Sync" })]
	}
	for _, step := range []abortStep{
		{name: "anchor-shard1", anchor: true},
		{name: "stage-shard0-Sync", at: stagedSync(ShardName("git", 0) + ".lseal")},
		{name: "stage-sidecar-Sync", at: stagedSync(ManifestFileName("git"))},
	} {
		t.Run(step.name, func(t *testing.T) {
			var compactOps, appendOps []crashPoint
			t.Run("call", func(t *testing.T) {
				runTrimAbort(t, step, noCrash, false, &compactOps, &appendOps)
			})
			i := slices.IndexFunc(appendOps, func(p crashPoint) bool { return p.op == "Write" })
			if i < 0 {
				t.Fatalf("the append after the compaction wrote nothing: %v", appendOps)
			}
			// Every operation but the step and its file's before it: the
			// images are staged side by side, so the others' have no order.
			later := slices.DeleteFunc(slices.Concat(compactOps, appendOps), func(p crashPoint) bool {
				return p.file == step.at.file && p.n <= step.at.n
			})
			t.Run("append-write", func(t *testing.T) { runTrimAbort(t, step, appendOps[i], false, nil, nil) })
			// Shard 0's carrying record is its first write after its staged
			// image (if any): failed, it fails the file closed.
			var carry crashPoint
			for _, p := range compactOps {
				switch {
				case p.file != ShardName("git", 0)+".lseal":
				case p.op == "Close":
					carry = crashPoint{}
				case p.op == "Write" && carry.op == "":
					carry = p
				}
			}
			t.Run("carry-write", func(t *testing.T) { runTrimAbort(t, step, carry, false, nil, nil) })
			for _, p := range later {
				t.Run(fmt.Sprintf("death/%s/%d-%s", p.file, p.n, p.op), func(t *testing.T) { runTrimAbort(t, step, p, true, nil, nil) })
			}
		})
	}
}

// abortStep is the step that fails a compaction before its first rename:
// shard 1's anchor, or the operation at.
type abortStep struct {
	name   string
	anchor bool
	at     crashPoint
}

// runTrimAbort trims a two-shard set holding three updates of one branch per
// shard and compacts it with step failing, then appends one row on shard 0,
// with the fault at failAt armed through both (die: as the process's death);
// it lists the operations the compaction and the append issued in compactOps
// and appendOps (when not nil), and checks what is left.
func runTrimAbort(t *testing.T, step abortStep, failAt crashPoint, die bool, compactOps, appendOps *[]crashPoint) {
	e := newAuditEnv(t)
	pub := e.encl.PublicKey()
	prot := newLaneProtector()
	fs := &crashFS{perFile: true, failAt: noCrash}
	cfg := e.shardConfig("git", 2)
	cfg.FS, cfg.Protector = fs, prot
	var s *ShardedLog
	e.call(t, func(env *asyncall.Env) (err error) {
		if s, err = NewSharded(env, cfg); err != nil {
			return err
		}
		for i := 0; i < 6; i++ {
			if err := s.Append(env, keyForShard(s, i%2), "updates", i, fmt.Sprintf("r%d", i%2), "main", fmt.Sprintf("c%d", i), "update"); err != nil {
				return err
			}
		}
		return s.WriteManifest(env)
	})
	trimDatabase(t, e, s, trimLatest)
	images := setImagesOf(t, s)
	var chains [2][32]byte
	var seqs [2]uint64
	for k := range chains {
		chains[k], seqs[k] = s.Shard(k).ChainHash(), s.Shard(k).Seq()
	}
	fs.mu.Lock()
	fs.seen, fs.ops, fs.failAt, fs.die, fs.also = nil, nil, failAt, die, step.at
	fs.mu.Unlock()
	if step.anchor {
		prot.failing(func(name string) bool { return name == ShardName("git", 1) })
	}
	err := e.bridge.Call(s.Compact)
	prot.failing(nil)
	fs.mu.Lock()
	compacted := len(fs.ops)
	fs.mu.Unlock()
	switch {
	case step.anchor && (err == nil || !strings.Contains(err.Error(), "shard 1 rewrite")):
		t.Errorf("compaction with shard 1's anchor failing: %v, want shard 1's rewrite error", err)
	case !step.anchor && !errors.Is(err, errCrash):
		t.Errorf("compaction with %s's staged Sync failing: %v, want that error", step.at.file, err)
	}
	for k := range chains {
		if s.Shard(k).ChainHash() != chains[k] || s.Shard(k).Seq() != seqs[k] {
			t.Errorf("shard %d moved although the compaction failed: seq %d -> %d", k, seqs[k], s.Shard(k).Seq())
		}
	}
	carryFailed := s.Files()[0].f.failed != nil
	if !die {
		// Every value spent is carried: both shards' anchors unless shard 1's
		// failed, and the manifest's; a carrying record that failed fails its
		// file closed instead.
		want := [][]byte{{recSig}, {recSig}, {recManifest}}
		if step.anchor {
			want[1] = nil
		}
		if carryFailed {
			want[0] = nil
		}
		for i := range want {
			if got := recordsAppended(t, images[i], s.Files()[i].Path()); !bytes.Equal(got, want[i]) {
				t.Errorf("%s gained records %q, want only the carrying ones %q", s.Files()[i].Path(), got, want[i])
			}
		}
	}
	acked := e.bridge.Call(func(env *asyncall.Env) error {
		return s.Append(env, keyForShard(s, 0), "updates", 6, "r0", "main", "c6", "update")
	}) == nil
	if carryFailed && acked {
		t.Errorf("shard 0 failed closed, and acknowledged an append")
	}
	fs.mu.Lock()
	ops := fs.ops
	fs.failAt, fs.also = noCrash, crashPoint{}
	fs.mu.Unlock()
	if compactOps != nil {
		*compactOps, *appendOps = ops[:compacted], ops[compacted:]
	}
	s.Close()

	// Nothing landed (but see below): the shards hold every row appended, the
	// one after the compaction if it was acknowledged (perhaps if it was not).
	tolerant, err := e.verifyDir(VerifyOptions{Pub: pub, Protector: prot, RecoverTruncated: true, MaxCounterLag: 1})
	if err != nil {
		t.Fatalf("tolerant verify: %v", err)
	}
	rcfg := e.shardConfig("git", 2)
	rcfg.Protector, rcfg.RecoverMaxLag = prot, 1
	var rec *ShardedLog
	e.call(t, func(env *asyncall.Env) (err error) {
		rec, err = RecoverSharded(env, rcfg, pub)
		return err
	})
	defer rec.Close()
	if rec.Seq() != uint64(tolerant.TotalEntries) {
		t.Fatalf("recovery holds %d entries, the tolerant verify %d", rec.Seq(), tolerant.TotalEntries)
	}
	res, err := rec.Query("SELECT cid FROM updates")
	if err != nil {
		t.Fatal(err)
	}
	var cids []string
	for _, row := range res.Rows {
		cids = append(cids, row[0].TextVal())
	}
	slices.Sort(cids)
	want := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	// A death while the images were staged may leave every one of them whole,
	// a land the restart completes: the post-trim rows, and nothing after.
	landed := die && !acked && slices.Equal(cids, []string{"c4", "c5"})
	if !slices.Equal(cids, append(want, "c6")) && (acked || !slices.Equal(cids, want)) && !landed {
		t.Fatalf("recovered rows %v; want %v, with c6 if its append was acknowledged (%v)", cids, want, acked)
	}
	e.call(t, func(env *asyncall.Env) error {
		if err := rec.Append(env, keyForShard(rec, 1), "updates", 7, "r1", "main", "c7", "update"); err != nil {
			return err
		}
		return rec.WriteManifest(env)
	})
	rec.Close()
	if rep, err := e.verifyDir(VerifyOptions{Pub: pub, Protector: prot}); err != nil || rep.TotalEntries != len(cids)+1 {
		t.Fatalf("strict verify after one more append and a manifest: %v, %v; want %d entries", err, rep, len(cids)+1)
	}
}

// TestTrimBuildsWhileAnchorsInFlight: a compaction issues its fresh anchors
// and returns to the enclave at once; the survivors are dealt, chained and
// sealed while the increments are in flight. With all three increments held
// at the counter service, the images are already built.
func TestTrimBuildsWhileAnchorsInFlight(t *testing.T) {
	e := newAuditEnv(t)
	prot := newLaneProtector()
	s := trimFanOutSet(t, e, prot)
	trimDatabase(t, e, s, trimLatest)
	built := make(chan []rewrite, 1)
	s.onBuilt = func(rws []rewrite) { built <- rws }
	gate := prot.arm()
	done := make(chan error, 1)
	go func() {
		done <- e.bridge.Call(s.Compact)
	}()
	gate.awaitIncrements(t, 3)
	select {
	case rws := <-built:
		for k, rw := range rws {
			if len(rw.encs) != 1 || len(rw.recs) != 1 || rw.chain != batchChain([32]byte{}, rw.recs) || rw.chain == ([32]byte{}) {
				close(gate.release)
				t.Fatalf("shard %d: image not built before its anchor: %d entries, %d records", k, len(rw.encs), len(rw.recs))
			}
		}
	case <-time.After(5 * time.Second):
		close(gate.release)
		t.Fatal("the compaction built nothing while its three anchors were in flight")
	}
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s.Close()
	rep, err := e.verifyDir(VerifyOptions{Pub: e.encl.PublicKey(), Protector: prot})
	if err != nil || rep.TotalEntries != 2 {
		t.Fatalf("strict verify: %v, %v entries; want the 2 survivors", err, rep)
	}
}

// TestTrimStaleBurnsNoIncrement: a plan the database refuses is refused
// before any counter is touched.
func TestTrimStaleBurnsNoIncrement(t *testing.T) {
	e := newAuditEnv(t)
	prot := newLaneProtector()
	s := trimFanOutSet(t, e, prot)
	defer s.Close()
	stmts, err := s.DB().PrepareScript(trimLatest)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := PlanTrim(s.DB().Snapshot(), stmts)
	if err != nil {
		t.Fatal(err)
	}
	e.call(t, func(env *asyncall.Env) error { return trimSet(env, s, []string{trimLatest}) })
	names := []string{ShardName("git", 0), ShardName("git", 1), ManifestCounterName("git")}
	var counters []uint64
	for _, n := range names {
		c, _ := prot.Read(n)
		counters = append(counters, c)
	}
	if err := e.bridge.Call(func(env *asyncall.Env) error { return s.ApplyTrim(env, stale) }); !errors.Is(err, sqldb.ErrTrimStale) {
		t.Fatalf("ApplyTrim(stale plan) = %v, want ErrTrimStale", err)
	}
	for i, n := range names {
		if c, _ := prot.Read(n); c != counters[i] {
			t.Fatalf("counter %s moved %d -> %d for a refused plan", n, counters[i], c)
		}
	}
}

// TestTrimStagesInMetrics: a trim and its compaction are on /metrics — the
// plan and the database trim (audit.trim), the compaction's count and latency
// beside its stages (the quiesce before it, the anchors' wait) — and so is why
// the log is the size it is: its committed bytes, and the live ones a
// compaction would keep.
func TestTrimStagesInMetrics(t *testing.T) {
	e := newAuditEnv(t)
	s := trimFanOutSet(t, e, newLaneProtector())
	defer s.Close()
	e.call(t, func(env *asyncall.Env) error { return trimSet(env, s, []string{trimLatest}) })
	rec := httptest.NewRecorder()
	telemetry.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var body map[string]telemetry.Metric
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"audit.trim.latency", "audit.trim.plan", "audit.compact.latency", "audit.trim.quiesce", "audit.trim.anchor_wait"} {
		if m, ok := body[name]; !ok || m.Type != "histogram" || m.Value < 1 {
			t.Errorf("%s on /metrics: %+v, %v; want a histogram with the trim in it", name, m, ok)
		}
	}
	if m, ok := body["audit.compactions"]; !ok || m.Type != "counter" || m.Value < 1 {
		t.Errorf("audit.compactions on /metrics: %+v, %v; want the compaction counted", m, ok)
	}
	// The set is the last to have trimmed and compacted: the gauges are its.
	var committed int64
	for _, v := range s.Files()[:2] {
		committed += v.CommittedSize()
	}
	if m := body["audit.log_bytes.committed"]; m.Type != "gauge" || m.Value != committed {
		t.Errorf("audit.log_bytes.committed on /metrics: %+v; want the gauge at the shard files' %d bytes", m, committed)
	}
	if m := body["audit.log_bytes.live"]; m.Type != "gauge" || m.Value != s.image.Load() || m.Value < committed {
		t.Errorf("audit.log_bytes.live on /metrics: %+v; want the gauge at a fresh image's %d bytes, no less than the %d just compacted", m, s.image.Load(), committed)
	}
}
