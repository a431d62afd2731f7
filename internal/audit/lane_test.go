package audit

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/enclave"
)

// laneProtector is a counter service the lane and trim tests script: one
// counter per name, increments of chosen names failing, and — once armed —
// every increment announcing itself and parking until released, which is how
// a test holds a commit, a trim or a manifest inside its counter round trip.
type laneProtector struct {
	mu   sync.Mutex
	n    map[string]uint64
	fail func(name string) bool
	gate *incrementGate
}

type incrementGate struct {
	entered chan string
	release chan struct{}
}

func newLaneProtector() *laneProtector { return &laneProtector{n: make(map[string]uint64)} }

// arm gates every increment from now on.
func (p *laneProtector) arm() *incrementGate {
	g := &incrementGate{entered: make(chan string, 16), release: make(chan struct{})}
	p.mu.Lock()
	p.gate = g
	p.mu.Unlock()
	return g
}

func (p *laneProtector) failing(fail func(name string) bool) {
	p.mu.Lock()
	p.fail = fail
	p.mu.Unlock()
}

func (p *laneProtector) Increment(name string) (uint64, error) {
	p.mu.Lock()
	g := p.gate
	p.mu.Unlock()
	if g != nil {
		g.entered <- name
		<-g.release
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fail != nil && p.fail(name) {
		return 0, errors.New("quorum unreachable (scripted)")
	}
	p.n[name]++
	return p.n[name], nil
}

func (p *laneProtector) Read(name string) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n[name], nil
}

// awaitIncrements waits until n gated increments are in flight at once and
// returns their counter names.
func (g *incrementGate) awaitIncrements(t *testing.T, n int) []string {
	t.Helper()
	var names []string
	for len(names) < n {
		select {
		case name := <-g.entered:
			names = append(names, name)
		case <-time.After(5 * time.Second):
			close(g.release)
			t.Fatalf("%d of %d counter increments in flight: %v", len(names), n, names)
		}
	}
	return names
}

// asyncSet launches an enclave behind an asynchronous bridge of the given
// size and creates a log set on it.
func asyncSet(t *testing.T, size asyncall.Config, cfg ShardedConfig) (*enclave.Enclave, *asyncall.Bridge, *ShardedLog) {
	t.Helper()
	encl, err := enclave.NewPlatform().Launch(enclave.Config{Code: []byte("libseal-audit"), MaxThreads: 4, Cost: enclave.ZeroCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	size.Mode = asyncall.ModeAsync
	bridge, err := asyncall.New(encl, size)
	if err != nil {
		t.Fatal(err)
	}
	var s *ShardedLog
	if err := bridge.Call(func(env *asyncall.Env) error {
		s, err = NewSharded(env, cfg)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return encl, bridge, s
}

// TestAsyncBridgeCounterWaitsAreOcalls: a counter increment is a network
// round trip. Made inside the enclave call it pins the lthread scheduler for
// its whole duration, and every sibling task with it; made as an ocall the
// task parks and the scheduler runs the others. With one scheduler and two
// tasks, while task A's trim, manifest or re-anchor is held in its increment,
// task B's unrelated ecall must still complete.
func TestAsyncBridgeCounterWaitsAreOcalls(t *testing.T) {
	for _, tc := range []struct {
		name string
		gap  bool // the entries are appended while the quorum is away
		op   func(env *asyncall.Env, s *ShardedLog) error
	}{
		{"Trim", true, func(env *asyncall.Env, s *ShardedLog) error {
			return trimSet(env, s, []string{"DELETE FROM updates WHERE time < 1"})
		}},
		// A manifest asks the quorum only while no shard is degraded.
		{"WriteManifest", false, func(env *asyncall.Env, s *ShardedLog) error { return s.WriteManifest(env) }},
		{"Reanchor", true, func(env *asyncall.Env, s *ShardedLog) error { return s.Reanchor(env) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prot := newLaneProtector()
			cfg := ShardedConfig{Shards: 2, ManifestEvery: time.Hour, Config: Config{
				Name: "git", Schema: testSchema, Mode: ModeDisk, Dir: t.TempDir(), Protector: prot, DegradedLimit: 4,
			}}
			_, bridge, s := asyncSet(t, asyncall.Config{AppSlots: 2, Schedulers: 1, TasksPerScheduler: 2}, cfg)
			// One entry per shard, appended while the quorum is away where the
			// row asks for it, so that Reanchor has a gap to close.
			prot.failing(func(string) bool { return tc.gap })
			for k := 0; k < 2; k++ {
				if err := bridge.Call(func(env *asyncall.Env) error {
					return s.Append(env, keyForShard(s, k), "updates", k, "r", "main", fmt.Sprintf("c%d", k), "update")
				}); err != nil {
					t.Fatal(err)
				}
			}
			prot.failing(nil)
			gate := prot.arm()

			a := make(chan error, 1)
			go func() { a <- bridge.Call(func(env *asyncall.Env) error { return tc.op(env, s) }) }()
			gate.awaitIncrements(t, 1) // A is inside its counter round trip
			b := make(chan error, 1)
			go func() { b <- bridge.Call(func(env *asyncall.Env) error { return nil }) }()
			select {
			case err := <-b:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(2 * time.Second):
				close(gate.release)
				t.Fatalf("an unrelated ecall waited for %s's counter increment: the round trip pinned the lthread scheduler", tc.name)
			}
			close(gate.release)
			if err := <-a; err != nil {
				t.Fatal(err)
			}
			s.Close()
			bridge.Close()
		})
	}
}

// flushCounts reads the commit and flush-reason counters.
func flushCounts() (commits, full, delay, idle int64) {
	return mBatchCommits.Value(), mFlushFull.Value(), mFlushDelay.Value(), mFlushIdle.Value()
}

// TestIdleLaneSingleWriter: a leader that finds the lane idle commits at
// once. With nobody to batch with, BatchDelay — here far beyond the deadline —
// must never be waited, and every commit is booked as an idle flush.
func TestIdleLaneSingleWriter(t *testing.T) {
	e := newAuditEnv(t)
	var l *oneShard
	e.call(t, func(env *asyncall.Env) (err error) {
		l, err = newOneShard(env, e.batchConfig("git", 16, 2*time.Second))
		return err
	})
	defer l.Close()
	commits0, full0, delay0, idle0 := flushCounts()
	const appends = 5
	for i := 0; i < appends; i++ {
		start := time.Now()
		e.call(t, func(env *asyncall.Env) error {
			return l.Append(env, "updates", i, "r", "main", fmt.Sprintf("c%d", i), "update")
		})
		if d := time.Since(start); d > 500*time.Millisecond {
			t.Fatalf("append %d on an idle lane took %v: the leader waited for followers", i, d)
		}
	}
	commits, full, delay, idle := flushCounts()
	if commits-commits0 != appends || idle-idle0 != appends || full != full0 || delay != delay0 {
		t.Fatalf("commits %d, flush full/delay/idle %d/%d/%d; want %d commits, all idle",
			commits-commits0, full-full0, delay-delay0, idle-idle0, appends)
	}
}

// TestIdleLaneConcurrentWritersStillBatch: the idle rule must not cost group
// commit its amortisation. Under concurrent writers batches form from the
// followers that arrive while a commit is in flight; every flush has exactly
// one reason; and every acknowledged entry is in the strictly verified log.
func TestIdleLaneConcurrentWritersStillBatch(t *testing.T) {
	// The async bridge, so that all sixteen calls can be in flight at once
	// (the sync test enclave has four threads).
	e := newAuditEnv(t)
	encl, bridge, s := asyncSet(t, asyncall.Config{AppSlots: 16, Schedulers: 2}, ShardedConfig{Config: e.batchConfig("git", 16, 2*time.Millisecond)})
	defer bridge.Close()
	l := s.Shard(0)
	commits0, full0, delay0, idle0 := flushCounts()
	const writers, perWriter = 16, 12
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter && errs[g] == nil; i++ {
				errs[g] = bridge.Call(func(env *asyncall.Env) error {
					return l.Append(env, "updates", g*perWriter+i, "r", "main", fmt.Sprintf("c%d-%d", g, i), "update")
				})
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
	}
	s.Close()
	commits, full, delay, idle := flushCounts()
	commits, full, delay, idle = commits-commits0, full-full0, delay-delay0, idle-idle0
	if full+delay+idle != commits {
		t.Fatalf("flush full %d + delay %d + idle %d != %d commits", full, delay, idle, commits)
	}
	const total = writers * perWriter
	if mean := float64(total) / float64(commits); mean < 3 {
		t.Fatalf("%d entries in %d batches (mean %.1f): concurrent writers no longer batch", total, commits, mean)
	}
	t.Logf("%d entries in %d batches: %d full, %d after a fill wait, %d on an idle lane", total, commits, full, delay, idle)
	entries, err := verifyFile(filepath.Join(e.dir, "git-shard0.lseal"), VerifyOptions{
		Pub: encl.PublicKey(), Protector: e.group,
	})
	if err != nil {
		t.Fatalf("strict verify: %v", err)
	}
	if len(entries) != total {
		t.Fatalf("verified %d entries, acknowledged %d", len(entries), total)
	}
}

// TestIdleLaneFollowerLandsInNextBatch: claiming the lane seals the batch. A
// follower that stages while the leader is inside its counter round trip
// opens the next batch; it must never join the one whose signature is already
// being anchored.
func TestIdleLaneFollowerLandsInNextBatch(t *testing.T) {
	e := newAuditEnv(t)
	prot := newLaneProtector()
	cfg := e.batchConfig("git", 16, 5*time.Millisecond)
	cfg.Protector = prot
	var l *oneShard
	e.call(t, func(env *asyncall.Env) (err error) {
		l, err = newOneShard(env, cfg)
		return err
	})
	gate := prot.arm()
	stageAndWait := func(seq int, staged chan<- *commitBatch) chan error {
		done := make(chan error, 1)
		go func() {
			done <- e.bridge.Call(func(env *asyncall.Env) error {
				tk, err := l.Stage(env, []Row{{Table: "updates", Values: []any{seq, "r", "main", fmt.Sprintf("c%d", seq), "update"}}})
				if err != nil {
					return err
				}
				staged <- tk.waits[0].b
				return tk.Wait(env)
			})
		}()
		return done
	}
	batches := make(chan *commitBatch, 2)
	a := stageAndWait(0, batches)
	gate.awaitIncrements(t, 1) // the leader holds the lane, inside its increment
	sealed := <-batches
	b := stageAndWait(1, batches)
	next := <-batches
	close(gate.release)
	for name, done := range map[string]chan error{"leader": a, "follower": b} {
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if next == sealed || len(sealed.payloads) != 1 || len(next.payloads) != 1 {
		t.Fatalf("follower joined the sealed batch: sealed holds %d entries, the follower's batch %d", len(sealed.payloads), len(next.payloads))
	}
	l.Close()
	raw, err := os.ReadFile(filepath.Join(e.dir, "git-shard0.lseal"))
	if err != nil {
		t.Fatal(err)
	}
	res, entries, err := verifyEntries(bytes.NewReader(raw), VerifyOptions{Pub: e.encl.PublicKey(), Protector: prot}, gitShard0)
	if err != nil {
		t.Fatalf("strict verify: %v", err)
	}
	if len(entries) != 2 || res.Batches != 2 {
		t.Fatalf("%d entries in %d batches, want 2 in 2", len(entries), res.Batches)
	}
}

// TestGroupCommitSignsWhileAnchorInFlight: a commit issues its counter
// increment and returns to the enclave at once; the batch is signed while the
// round trip is in flight, over the value it is predicted to return, and
// nothing reaches the file until the value is back. With the increment held
// at the counter service, the signature is made and the file has not moved.
func TestGroupCommitSignsWhileAnchorInFlight(t *testing.T) {
	for _, mode := range []asyncall.Mode{asyncall.ModeSync, asyncall.ModeAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			prot := newLaneProtector()
			dir := t.TempDir()
			cfg := Config{Name: "git", Schema: testSchema, Mode: ModeDisk, Dir: dir, Protector: prot, BatchMax: 16}
			var bridge *asyncall.Bridge
			var encl *enclave.Enclave
			var l *oneShard
			if mode == asyncall.ModeAsync {
				encl, bridge, l = asyncShard(t, asyncall.Config{AppSlots: 2, Schedulers: 1, TasksPerScheduler: 2}, cfg)
				defer bridge.Close()
			} else {
				e := newAuditEnv(t)
				encl, bridge = e.encl, e.bridge
				e.call(t, func(env *asyncall.Env) (err error) {
					l, err = newOneShard(env, cfg)
					return err
				})
			}
			appendOne := func(seq int) chan error {
				done := make(chan error, 1)
				go func() {
					done <- bridge.Call(func(env *asyncall.Env) error {
						return l.Append(env, "updates", seq, "r", "main", fmt.Sprintf("c%d", seq), "update")
					})
				}()
				return done
			}
			if err := <-appendOne(0); err != nil {
				t.Fatal(err)
			}
			file := l.set.Files()[0]
			size0, sigs0, fsyncs0 := file.CommittedSize(), mSignatures.Value(), mFsyncs.Value()
			gate := prot.arm()
			done := appendOne(1)
			gate.awaitIncrements(t, 1)
			for deadline := time.Now().Add(5 * time.Second); mSignatures.Value() == sigs0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond) // room for a wrong second signature or an early write
			sigs, fsyncs, size := mSignatures.Value()-sigs0, mFsyncs.Value()-fsyncs0, file.CommittedSize()
			close(gate.release)
			if sigs != 1 || fsyncs != 0 || size != size0 {
				t.Fatalf("with the increment in flight: %d signatures, %d fsyncs, file %d -> %d bytes; want the batch signed and nothing written", sigs, fsyncs, size0, size)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if sigs, fsyncs := mSignatures.Value()-sigs0, mFsyncs.Value()-fsyncs0; sigs != 1 || fsyncs != 1 {
				t.Fatalf("the commit paid %d signatures and %d fsyncs, want 1 and 1", sigs, fsyncs)
			}
			l.Close()
			entries, err := verifyFile(filepath.Join(dir, "git-shard0.lseal"), VerifyOptions{Pub: encl.PublicKey(), Protector: prot})
			if err != nil || len(entries) != 2 {
				t.Fatalf("strict verify: %v, %d entries; want 2", err, len(entries))
			}
		})
	}
}

// TestGroupCommitMispredictedCounterResigns: a commit signs over the value
// its increment is predicted to return, and signs again when another comes
// back — a counter another party advanced, or the last reachable value when
// the quorum is away and degraded mode admits the batch. Only the signature
// over the returned value reaches the file.
func TestGroupCommitMispredictedCounterResigns(t *testing.T) {
	e := newAuditEnv(t)
	prot := newLaneProtector()
	cfg := e.batchConfig("git", 16, 0)
	cfg.Protector, cfg.DegradedLimit = prot, 4
	var l *oneShard
	e.call(t, func(env *asyncall.Env) (err error) {
		l, err = newOneShard(env, cfg)
		return err
	})
	defer l.Close()
	name := ShardName("git", 0)
	path := filepath.Join(e.dir, name+".lseal")
	seq := 0
	// commit appends one entry and checks what it cost and what it wrote.
	commit := func(when string, wantSigs, wantResigns int64, wantCounter uint64) {
		t.Helper()
		sigs0, resigns0, waits0 := mSignatures.Value(), mCommitResigns.Value(), mCommitAnchorWait.Count()
		seq++
		e.call(t, func(env *asyncall.Env) error {
			return l.Append(env, "updates", seq, "r", "main", fmt.Sprintf("c%d", seq), "update")
		})
		if sigs, resigns := mSignatures.Value()-sigs0, mCommitResigns.Value()-resigns0; sigs != wantSigs || resigns != wantResigns {
			t.Fatalf("%s: %d signatures, %d re-signs; want %d, %d", when, sigs, resigns, wantSigs, wantResigns)
		}
		if waits := mCommitAnchorWait.Count() - waits0; waits != 1 {
			t.Fatalf("%s: audit.commit.anchor_wait observed %d collections, want 1", when, waits)
		}
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs := imageRecords(t, img)
		last := recs[len(recs)-1]
		sr, err := parseSig(last.payload)
		if last.typ != recSig || err != nil || sr.counter != wantCounter {
			t.Fatalf("%s: the file ends in a record of type %c claiming counter %d (%v); want a signature record at %d", when, last.typ, sr.counter, err, wantCounter)
		}
		entries, err := verifyFile(path, VerifyOptions{Pub: e.encl.PublicKey(), Protector: prot})
		if err != nil || len(entries) != seq {
			t.Fatalf("%s: strict verify: %v, %d entries; want %d", when, err, len(entries), seq)
		}
	}

	commit("predicted", 1, 0, 1)
	if _, err := prot.Increment(name); err != nil { // another party moves the counter
		t.Fatal(err)
	}
	commit("counter advanced behind the log's back", 2, 1, 3)
	commit("predicted again", 1, 0, 4)
	prot.failing(func(n string) bool { return n == name })
	commit("degraded", 2, 1, 4)
	if st := l.Status(); !st.Degraded || st.PendingAnchor != 1 {
		t.Fatalf("status = %+v, want degraded with 1 pending", st)
	}
}

// trimFanOutSet creates a two-shard set over prot holding three updates of
// one branch per shard, so a trim has something to drop everywhere.
func trimFanOutSet(t *testing.T, e *auditEnv, prot *laneProtector) *ShardedLog {
	t.Helper()
	cfg := e.shardConfig("git", 2)
	cfg.Protector = prot
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
		return nil
	})
	return s
}

const trimLatest = "DELETE FROM updates WHERE time NOT IN (SELECT MAX(time) FROM updates GROUP BY repo, branch)"

// TestTrimFanOutShardFailure: a compaction lands whole or not at all. A
// counter that fails only shard 1's increment aborts it: the error names shard
// 1, neither shard's seq or chain moves, and the files change only by the
// records carrying the values the compaction spent — a signature record on
// shard 0, a manifest on the sidecar — so the set verifies strictly and
// recovers as it stands, and the next compaction, with the counter back,
// converges.
func TestTrimFanOutShardFailure(t *testing.T) {
	e := newAuditEnv(t)
	prot := newLaneProtector()
	s := trimFanOutSet(t, e, prot)
	opts := VerifyOptions{Pub: e.encl.PublicKey(), Protector: prot}
	verify := func(when string, wantEntries int) {
		t.Helper()
		rep, err := e.verifyDir(opts)
		if err != nil {
			t.Fatalf("strict verify %s: %v", when, err)
		}
		if rep.TotalEntries != wantEntries {
			t.Fatalf("%s: %d entries verified, want %d", when, rep.TotalEntries, wantEntries)
		}
	}
	recoverSet := func(when string) *ShardedLog {
		t.Helper()
		cfg := e.shardConfig("git", 2)
		cfg.Protector = prot
		var rec *ShardedLog
		if err := e.bridge.Call(func(env *asyncall.Env) (err error) {
			rec, err = RecoverSharded(env, cfg, e.encl.PublicKey())
			return err
		}); err != nil {
			t.Fatalf("recover %s: %v", when, err)
		}
		return rec
	}
	images := setImagesOf(t, s)
	var chains [2][32]byte
	var seqs [2]uint64
	for k := range chains {
		chains[k], seqs[k] = s.Shard(k).ChainHash(), s.Shard(k).Seq()
	}

	prot.failing(func(name string) bool { return name == ShardName("git", 1) })
	trimDatabase(t, e, s, trimLatest)
	err := e.bridge.Call(s.Compact)
	if err == nil || !strings.Contains(err.Error(), "shard 1 rewrite") {
		t.Fatalf("compaction with shard 1's counter down: %v, want shard 1's rewrite error", err)
	}
	for k := range chains {
		if s.Shard(k).ChainHash() != chains[k] || s.Shard(k).Seq() != seqs[k] {
			t.Fatalf("shard %d moved although the compaction failed: seq %d -> %d", k, seqs[k], s.Shard(k).Seq())
		}
	}
	// Shard 0's anchor and the manifest's spent a value each; shard 1's spent
	// none.
	for i, want := range [][]byte{{recSig}, nil, {recManifest}} {
		if got := recordsAppended(t, images[i], s.Files()[i].Path()); !bytes.Equal(got, want) {
			t.Fatalf("%s gained records %q, want only the carrying ones %q", s.Files()[i].Path(), got, want)
		}
	}
	total := int(seqs[0] + seqs[1])
	verify("after the failed compaction", total)
	s.Close()
	rec := recoverSet("after the failed compaction")
	verify("after recovering the failed compaction", total)

	prot.failing(nil)
	e.call(t, func(env *asyncall.Env) error { return trimSet(env, rec, []string{trimLatest}) })
	rows, err := rec.DB().TableRowCount("updates")
	if err != nil {
		t.Fatal(err)
	}
	if int(rec.Seq()) != rows {
		t.Fatalf("after the converging trim the shards hold %d entries, the database %d rows", rec.Seq(), rows)
	}
	verify("after the converging trim", rows)
	rec.Close()
	recoverSet("after the converging trim").Close()
	verify("after recovering the converged set", rows)
}

// setImagesOf reads every persisted file of s, in Files order.
func setImagesOf(t *testing.T, s *ShardedLog) [][]byte {
	t.Helper()
	var images [][]byte
	for _, v := range s.Files() {
		b, err := os.ReadFile(v.Path())
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, b)
	}
	return images
}

// recordsAppended returns the types of the whole records the file at path
// holds past before, which must be its prefix; the test fails, and goes on,
// if it is not.
func recordsAppended(t *testing.T, before []byte, path string) []byte {
	t.Helper()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, before) {
		t.Errorf("%s: the records it held before were rewritten", path)
		return nil
	}
	var types []byte
	for rest := after[len(before):]; len(rest) > 0; {
		if len(rest) < 5 || 5+int(binary.BigEndian.Uint32(rest[1:])) > len(rest) {
			t.Errorf("%s: a partial record past the old ones", path)
			return types
		}
		types = append(types, rest[0])
		rest = rest[5+int(binary.BigEndian.Uint32(rest[1:])):]
	}
	return types
}

// TestTrimFanOutIncrementsOverlap: a compaction's fresh anchors — one per
// shard and the manifest's — are independent counters and wait side by side,
// so a compaction costs one counter round-trip time whatever the shard count.
func TestTrimFanOutIncrementsOverlap(t *testing.T) {
	e := newAuditEnv(t)
	prot := newLaneProtector()
	s := trimFanOutSet(t, e, prot)
	trimDatabase(t, e, s, trimLatest)
	gate := prot.arm()
	done := make(chan error, 1)
	go func() {
		done <- e.bridge.Call(s.Compact)
	}()
	names := gate.awaitIncrements(t, 3)
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{ShardName("git", 0), ShardName("git", 1), ManifestCounterName("git")} {
		if !seen[want] {
			t.Fatalf("increments in flight together: %v, want %s among them", names, want)
		}
	}
	s.Close()
	rep, err := e.verifyDir(VerifyOptions{Pub: e.encl.PublicKey(), Protector: prot})
	if err != nil {
		t.Fatalf("strict verify: %v", err)
	}
	if rep.TotalEntries != 2 {
		t.Fatalf("verified %d entries, want the 2 survivors", rep.TotalEntries)
	}
	cfg := e.shardConfig("git", 2)
	cfg.Protector = prot
	var rec *ShardedLog
	e.call(t, func(env *asyncall.Env) (err error) {
		rec, err = RecoverSharded(env, cfg, e.encl.PublicKey())
		return err
	})
	rec.Close()
}
