package audit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/enclave"
	"libseal/internal/faultinject"
	"libseal/internal/rote"
)

// batchConfig returns a disk config with group commit enabled.
func (e *auditEnv) batchConfig(name string, batchMax int, delay time.Duration) Config {
	cfg := e.diskConfig(name)
	cfg.BatchMax = batchMax
	cfg.BatchDelay = delay
	return cfg
}

// TestGroupCommitConcurrentAppends drives appends from many goroutines with
// batching on and checks that every acknowledged entry lands durably, the
// file passes strict client verification, and each committed batch paid
// exactly one fsync and one signature.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	e := newAuditEnv(t)
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, e.batchConfig("git", 8, 2*time.Millisecond))
		return err
	})

	fsyncs0 := mFsyncs.Value()
	sigs0 := mSignatures.Value()
	commits0 := mBatchCommits.Value()

	const goroutines = 8
	const perG = 6
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				err := e.bridge.Call(func(env *asyncall.Env) error {
					return l.Append(env, "updates", g*perG+i, "r", "main", fmt.Sprintf("c%d-%d", g, i), "update")
				})
				if err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}

	const total = goroutines * perG
	if l.Seq() != total {
		t.Fatalf("seq = %d, want %d", l.Seq(), total)
	}
	commits := mBatchCommits.Value() - commits0
	if got := mFsyncs.Value() - fsyncs0; got != commits {
		t.Fatalf("fsyncs = %d, want one per batch (%d)", got, commits)
	}
	if got := mSignatures.Value() - sigs0; got != commits {
		t.Fatalf("signatures = %d, want one per batch (%d)", got, commits)
	}
	if commits < 1 || commits > total {
		t.Fatalf("batch commits = %d for %d appends", commits, total)
	}
	t.Logf("committed %d appends in %d batches", total, commits)
	l.Close()

	entries, err := verifyFile(filepath.Join(e.dir, "git-shard0.lseal"), VerifyOptions{
		Pub: e.encl.PublicKey(), Protector: e.group,
	})
	if err != nil {
		t.Fatalf("strict verify of batched log: %v", err)
	}
	if len(entries) != total {
		t.Fatalf("verified entries = %d, want %d", len(entries), total)
	}
}

// asyncShard launches an enclave behind an asynchronous bridge of the given
// size and creates a one-shard log on it.
func asyncShard(t *testing.T, size asyncall.Config, cfg Config) (*enclave.Enclave, *asyncall.Bridge, *oneShard) {
	t.Helper()
	encl, bridge, s := asyncSet(t, size, ShardedConfig{Config: cfg})
	return encl, bridge, &oneShard{s.Shard(0), s}
}

// TestGroupCommitAsyncBridge repeats the concurrent-append workload over the
// asynchronous call bridge, where a sleeping batch leader must never pin an
// lthread scheduler (the regression this guards against is a deadlock, not a
// wrong answer).
func TestGroupCommitAsyncBridge(t *testing.T) {
	group, err := rote.NewGroup(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	encl, bridge, l := asyncShard(t, asyncall.Config{AppSlots: 8, Schedulers: 2}, Config{
		Name: "git", Schema: testSchema, Mode: ModeDisk, Dir: dir,
		Protector: group, BatchMax: 8, BatchDelay: 2 * time.Millisecond,
	})
	defer bridge.Close()

	const goroutines = 8
	const perG = 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				err := bridge.Call(func(env *asyncall.Env) error {
					return l.Append(env, "updates", g*perG+i, "r", "main", fmt.Sprintf("a%d-%d", g, i), "update")
				})
				if err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if l.Seq() != goroutines*perG {
		t.Fatalf("seq = %d, want %d", l.Seq(), goroutines*perG)
	}
	l.Close()
	entries, err := verifyFile(filepath.Join(dir, "git-shard0.lseal"), VerifyOptions{
		Pub: encl.PublicKey(), Protector: group,
	})
	if err != nil {
		t.Fatalf("strict verify: %v", err)
	}
	if len(entries) != goroutines*perG {
		t.Fatalf("verified entries = %d, want %d", len(entries), goroutines*perG)
	}
}

// TestGroupCommitSingleSigPerBatch stages one multi-row ticket and checks
// the on-disk shape directly: N chained entry records under one signature
// record, one counter increment for the whole batch.
func TestGroupCommitSingleSigPerBatch(t *testing.T) {
	e := newAuditEnv(t)
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, e.batchConfig("git", 8, 0))
		if err != nil {
			return err
		}
		rows := make([]Row, 5)
		for i := range rows {
			rows[i] = Row{Table: "updates", Values: []any{i, "r", "main", fmt.Sprintf("c%d", i), "update"}}
		}
		tk, err := l.Stage(env, rows)
		if err != nil {
			return err
		}
		return tk.Wait(env)
	})
	l.Close()

	f, err := os.Open(filepath.Join(e.dir, "git-shard0.lseal"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, entries, err := verifyEntries(f, VerifyOptions{
		Pub: e.encl.PublicKey(), Protector: e.group,
	}, gitShard0)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(entries) != 5 {
		t.Fatalf("entries = %d, want 5", len(entries))
	}
	if res.Batches != 1 || res.MaxBatch != 5 {
		t.Fatalf("batches = %d maxBatch = %d, want 1 batch of 5", res.Batches, res.MaxBatch)
	}
	// The whole batch consumed a single counter increment.
	if c, err := e.group.Read("git-shard0"); err != nil || c != 1 {
		t.Fatalf("counter = %d (%v), want 1", c, err)
	}
}

// TestGroupCommitCrashMidBatchRecovered tears a write in the middle of a
// batch: the batch's appends fail (never acknowledged), and recovery lands
// exactly on the last signed batch — every acknowledged entry survives,
// nothing unacknowledged is resurrected.
func TestGroupCommitCrashMidBatchRecovered(t *testing.T) {
	e := newAuditEnv(t)
	// With group commit a batch is one write (after the magic, write 0):
	// batch 1 (2 entries) is write 1, batch 2 (3 entries) write 2. Tear the
	// latter two bytes into its third entry record's header.
	entry := entryRecordSize(t, "updates", 3, "r", "main", "c3", "update")
	in := faultinject.Scenario{Rules: []faultinject.Rule{
		faultinject.TornWrite("git-shard0.lseal", 2).AtByte(2*entry + 2),
	}}.Build()
	cfg := e.batchConfig("git", 8, 0)
	cfg.FS = in.FS(nil)

	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, cfg)
		if err != nil {
			return err
		}
		tk, err := l.Stage(env, []Row{
			{Table: "updates", Values: []any{1, "r", "main", "c1", "update"}},
			{Table: "updates", Values: []any{2, "r", "main", "c2", "update"}},
		})
		if err != nil {
			return err
		}
		return tk.Wait(env) // acknowledged: must survive the crash
	})

	err := e.bridge.Call(func(env *asyncall.Env) error {
		tk, err := l.Stage(env, []Row{
			{Table: "updates", Values: []any{3, "r", "main", "c3", "update"}},
			{Table: "updates", Values: []any{4, "r", "main", "c4", "update"}},
			{Table: "updates", Values: []any{5, "r", "main", "c5", "update"}},
		})
		if err != nil {
			return err
		}
		return tk.Wait(env)
	})
	if !errors.Is(err, faultinject.ErrTornWrite) {
		t.Fatalf("torn batch: %v, want ErrTornWrite", err)
	}
	if l.Seq() != 2 {
		t.Fatalf("seq advanced past the failed batch: %d", l.Seq())
	}
	l.Close()

	// The batch's counter increment happened before the torn flush, so the
	// persisted anchor lags the group by one.
	rcfg := e.batchConfig("git", 8, 0)
	rcfg.RecoverMaxLag = 1
	var rec *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		rec, err = recoverOneShard(env, rcfg, e.encl.PublicKey())
		return err
	})
	defer rec.Close()
	if rec.Seq() != 2 {
		t.Fatalf("recovered seq = %d, want the last signed batch (2)", rec.Seq())
	}
	res, err := rec.Query("SELECT cid FROM updates ORDER BY time")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].TextVal() != "c1" || res.Rows[1][0].TextVal() != "c2" {
		t.Fatalf("recovered rows = %v, want exactly the acknowledged batch", res.Rows)
	}
	// Re-anchored: strict client verification passes again.
	if _, err := verifyFile(filepath.Join(e.dir, "git-shard0.lseal"), VerifyOptions{
		Pub: e.encl.PublicKey(), Protector: e.group,
	}); err != nil {
		t.Fatalf("post-recovery strict verify: %v", err)
	}
}

// TestBatchAbortPoisonsSuccessors checks pipeline poisoning: when a batch's
// commit fails, later staged batches chain off a head that never became
// durable, so they must fail with ErrBatchAborted rather than commit.
func TestBatchAbortPoisonsSuccessors(t *testing.T) {
	e := newAuditEnv(t)
	// Batch 1 (2 entries, sealed by BatchMax=2; write 1) dies two bytes into
	// its signature record's header.
	entry := entryRecordSize(t, "updates", 1, "r", "main", "c1", "update")
	in := faultinject.Scenario{Rules: []faultinject.Rule{
		faultinject.TornWrite("git-shard0.lseal", 1).AtByte(2*entry + 2),
	}}.Build()
	cfg := e.batchConfig("git", 2, 0)
	cfg.FS = in.FS(nil)

	e.call(t, func(env *asyncall.Env) error {
		l, err := newOneShard(env, cfg)
		if err != nil {
			return err
		}
		tkA, err := l.Stage(env, []Row{
			{Table: "updates", Values: []any{1, "r", "main", "c1", "update"}},
			{Table: "updates", Values: []any{2, "r", "main", "c2", "update"}},
		})
		if err != nil {
			return err
		}
		tkB, err := l.Stage(env, []Row{
			{Table: "updates", Values: []any{3, "r", "main", "c3", "update"}},
		})
		if err != nil {
			return err
		}
		if err := tkA.Wait(env); !errors.Is(err, faultinject.ErrTornWrite) {
			t.Errorf("batch 1: %v, want ErrTornWrite", err)
		}
		if err := tkB.Wait(env); !errors.Is(err, ErrBatchAborted) {
			t.Errorf("batch 2: %v, want ErrBatchAborted", err)
		}
		if l.Seq() != 0 {
			t.Errorf("seq = %d, want 0 (nothing durable)", l.Seq())
		}
		return nil
	})
}

// TestAppendTelemetryCountsErrorsSeparately checks that failed appends land
// in audit.append.errors and neither inflate audit.appends nor observe a
// latency sample.
func TestAppendTelemetryCountsErrorsSeparately(t *testing.T) {
	e := newAuditEnv(t)
	appends0 := mAppends.Value()
	errs0 := mAppendErrors.Value()
	lat0 := mAppendLatency.Count()

	e.call(t, func(env *asyncall.Env) error {
		l, err := newOneShard(env, Config{Name: "git", Schema: testSchema, Mode: ModeMemory})
		if err != nil {
			return err
		}
		// Unconvertible value: the append fails before reaching the chain.
		if err := l.Append(env, "updates", struct{}{}, "r", "main", "c1", "update"); err == nil {
			t.Error("append of unconvertible value succeeded")
		}
		return l.Append(env, "updates", 1, "r", "main", "c1", "update")
	})

	if got := mAppendErrors.Value() - errs0; got != 1 {
		t.Fatalf("append errors = %d, want 1", got)
	}
	if got := mAppends.Value() - appends0; got != 1 {
		t.Fatalf("appends = %d, want 1 (failures must not count)", got)
	}
	if got := mAppendLatency.Count() - lat0; got != 1 {
		t.Fatalf("latency samples = %d, want 1 (success only)", got)
	}
}

// TestStageFailureLeavesNoPartialGroup pins Stage's atomicity promise: a
// group whose insert fails part-way must leave no rows behind — otherwise a
// later Trim, which rebuilds the signed log from the database, would fold
// never-staged rows into the verified chain. Each failed Stage call counts
// as one staging error, not one per row.
func TestStageFailureLeavesNoPartialGroup(t *testing.T) {
	e := newAuditEnv(t)
	errs0 := mAppendErrors.Value()
	e.call(t, func(env *asyncall.Env) error {
		l, err := newOneShard(env, Config{Name: "git", Schema: testSchema, Mode: ModeMemory})
		if err != nil {
			return err
		}
		// Row 2's arity does not match the table, which only surfaces at
		// insert time — after row 1 already went in.
		_, err = l.Stage(env, []Row{
			{Table: "updates", Values: []any{1, "r", "main", "c1", "update"}},
			{Table: "updates", Values: []any{2, "r"}},
		})
		if err == nil {
			t.Error("mid-group insert failure did not fail Stage")
		}
		if n, err := l.DB().TableRowCount("updates"); err != nil || n != 0 {
			t.Errorf("rows after failed group = %d (%v), want 0", n, err)
		}
		if got := mAppendErrors.Value() - errs0; got != 1 {
			t.Errorf("append errors after insert failure = %d, want 1 per Stage call", got)
		}
		// A pre-pipeline conversion failure is also one error, and equally
		// traceless.
		_, err = l.Stage(env, []Row{
			{Table: "updates", Values: []any{3, "r", "main", "c3", "update"}},
			{Table: "updates", Values: []any{struct{}{}, "r", "main", "c4", "update"}},
		})
		if err == nil {
			t.Error("unconvertible value did not fail Stage")
		}
		if got := mAppendErrors.Value() - errs0; got != 2 {
			t.Errorf("append errors after conversion failure = %d, want 2", got)
		}
		// The chain state is untouched: a clean append still works from seq 0.
		if err := l.Append(env, "updates", 5, "r", "main", "c5", "update"); err != nil {
			return err
		}
		if l.Seq() != 1 {
			t.Errorf("seq = %d, want 1", l.Seq())
		}
		if n, _ := l.DB().TableRowCount("updates"); n != 1 {
			t.Errorf("rows after clean append = %d, want 1", n)
		}
		return nil
	})
}

// TestStageAllocs bounds what staging costs the caller: a 16-row Stage and
// its Wait in memory mode. Statements are cached by (table, arity) with no
// key formatted, and each value is converted once and handed to sqldb as
// it is; with a formatted key per row and every converted value boxed back
// into an interface for sqldb to convert again it took 232 allocations.
func TestStageAllocs(t *testing.T) {
	e := newAuditEnv(t)
	rows := make([]Row, 16)
	for i := range rows {
		rows[i] = Row{Table: "updates", Values: []any{int64(i), "r", "main", fmt.Sprintf("c%d", i), "update"}}
	}
	e.call(t, func(env *asyncall.Env) error {
		l, err := newOneShard(env, Config{Name: "git", Schema: testSchema, Mode: ModeMemory})
		if err != nil {
			return err
		}
		allocs := testing.AllocsPerRun(100, func() {
			tk, err := l.Stage(env, rows)
			if err == nil {
				err = tk.Wait(env)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 116 {
			t.Errorf("%.0f allocations per 16-row Stage+Wait, want <= 116", allocs)
		}
		t.Logf("%.0f allocations per 16-row Stage+Wait", allocs)
		return nil
	})
}

// sigPayloadOffsets walks the on-disk record stream and returns the byte
// offset of every signature record's payload.
func sigPayloadOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var offs []int
	off := len(fileMagic)
	for off < len(data) {
		if off+5 > len(data) {
			t.Fatalf("truncated record header at %d", off)
		}
		n := int(binary.BigEndian.Uint32(data[off+1 : off+5]))
		if data[off] == recSig {
			offs = append(offs, off+5)
		}
		off += 5 + n
	}
	return offs
}

// TestIntermediateSignatureCorruptionDetected pins down that a batched log
// is rejected when ANY signature record is corrupted, not only the final
// commit point: a log whose intermediate batch signature does not verify is
// not the log the enclave wrote, even though the entries still chain up to
// a valid final signature.
func TestIntermediateSignatureCorruptionDetected(t *testing.T) {
	e := newAuditEnv(t)
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, e.batchConfig("git", 4, 0))
		if err != nil {
			return err
		}
		// Two batches: E E E S | E E S.
		tk, err := l.Stage(env, []Row{
			{Table: "updates", Values: []any{1, "r", "main", "c1", "update"}},
			{Table: "updates", Values: []any{2, "r", "main", "c2", "update"}},
			{Table: "updates", Values: []any{3, "r", "main", "c3", "update"}},
		})
		if err != nil {
			return err
		}
		if err := tk.Wait(env); err != nil {
			return err
		}
		tk, err = l.Stage(env, []Row{
			{Table: "updates", Values: []any{4, "r", "main", "c4", "update"}},
			{Table: "updates", Values: []any{5, "r", "main", "c5", "update"}},
		})
		if err != nil {
			return err
		}
		return tk.Wait(env)
	})
	l.Close()

	path := filepath.Join(e.dir, "git-shard0.lseal")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := VerifyOptions{Pub: e.encl.PublicKey(), Protector: e.group}
	if _, err := verifyFile(path, opts); err != nil {
		t.Fatalf("pristine log rejected: %v", err)
	}
	sigs := sigPayloadOffsets(t, pristine)
	if len(sigs) != 2 {
		t.Fatalf("signature records = %d, want 2", len(sigs))
	}

	flip := func(off int) {
		data := append([]byte(nil), pristine...)
		data[off] ^= 0xff
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
	}

	// Corrupt the intermediate signature: strict verification must refuse,
	// and so must torn-tail-tolerant verification — a signature record
	// beyond the damage proves it sits inside the committed prefix.
	flip(sigs[0] + 40)
	if _, err := verifyFile(path, opts); !errors.Is(err, ErrTampered) {
		t.Fatalf("intermediate sig corruption: err = %v, want ErrTampered", err)
	}
	tolerant := opts
	tolerant.RecoverTruncated = true
	if _, err := verifyFile(path, tolerant); !errors.Is(err, ErrTampered) {
		t.Fatalf("tolerant verify of mid-file sig corruption: err = %v, want ErrTampered", err)
	}

	// Corrupt the final signature: strict refuses; tolerant treats it as a
	// torn tail and falls back to the first batch's commit point — whose
	// counter lags the group by the lost batch's increment, so recovery's
	// lag allowance is needed to get past rollback detection.
	flip(sigs[1] + 40)
	if _, err := verifyFile(path, opts); !errors.Is(err, ErrTampered) {
		t.Fatalf("final sig corruption: err = %v, want ErrTampered", err)
	}
	tolerant.MaxCounterLag = 1
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, entries, err := verifyEntries(f, tolerant, gitShard0)
	if err != nil {
		t.Fatalf("tolerant verify of torn final sig: %v", err)
	}
	if len(entries) != 3 || res.Batches != 1 {
		t.Fatalf("tolerant result = %d entries / %d batches, want 3 / 1", len(entries), res.Batches)
	}
}

// gatedProtector blocks the first Increment of counter name until released:
// the handle the test below uses to hold a batch leader inside collectAnchor's
// ocall, waiting for the increment it issued before signing.
type gatedProtector struct {
	scriptedProtector
	name             string
	entered, release chan struct{}
	once             sync.Once
}

func (p *gatedProtector) Increment(name string) (uint64, error) {
	if name == p.name {
		p.once.Do(func() {
			close(p.entered)
			<-p.release
		})
	}
	return p.scriptedProtector.Increment(name)
}

// TestAsyncBridgeRelockAfterAnchor pins the lock-ordering cycle that hung the
// group-commit sweep on the async bridge: with one scheduler, task B waits
// for l.mu through asyncall.Lock's slow path (its host thread queues on the
// mutex, the task parks), and the sibling leader A comes back from its
// counter ocall and re-locks l.mu. If A's re-lock blocks the scheduler's
// thread, B — whose host thread is handed the mutex first — can never resume
// to release it.
func TestAsyncBridgeRelockAfterAnchor(t *testing.T) {
	gate := &gatedProtector{
		scriptedProtector: scriptedProtector{n: map[string]uint64{}},
		name:              ShardName("git", 0), entered: make(chan struct{}), release: make(chan struct{}),
	}
	encl, bridge, l := asyncShard(t, asyncall.Config{AppSlots: 2, Schedulers: 1, TasksPerScheduler: 2}, Config{
		Name: "git", Schema: testSchema, Mode: ModeDisk, Dir: t.TempDir(), Protector: gate,
	})
	appendOne := func(seq int) chan error {
		done := make(chan error, 1)
		go func() {
			done <- bridge.Call(func(env *asyncall.Env) error {
				return l.Append(env, "updates", seq, "r", "main", fmt.Sprintf("c%d", seq), "update")
			})
		}()
		return done
	}
	// waitOcalls polls until the enclave has issued n async-ocalls (or the
	// deadline passes: before the fix A's re-lock is not an ocall), then
	// gives the host thread running the ocall time to block on the mutex.
	waitOcalls := func(n int64) {
		for deadline := time.Now().Add(500 * time.Millisecond); encl.Stats().AsyncOcalls < n && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
	}

	a := appendOne(0)
	<-gate.entered // A leads its batch and is parked in the counter ocall
	l.mu.Lock()
	before := encl.Stats().AsyncOcalls
	b := appendOne(1)
	waitOcalls(before + 1) // B's host thread is queued on l.mu
	close(gate.release)
	waitOcalls(before + 2) // A is back inside and waiting for l.mu too
	l.mu.Unlock()

	for name, done := range map[string]chan error{"A": a, "B": b} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("append %s: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			// The bridge is wedged; closing it would hang too.
			t.Fatalf("append %s never returned: the leader's re-lock blocked its lthread scheduler", name)
		}
	}
	l.Close()
	bridge.Close()
}
