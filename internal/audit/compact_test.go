package audit

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"libseal/internal/asyncall"
	"libseal/internal/faultinject"
	"libseal/internal/vfs"
)

// countingFS counts every call the record files make into the file system,
// the calls on the handles it hands out included.
type countingFS struct {
	vfs.FS
	calls atomic.Int64
}

type countingFile struct {
	vfs.File
	calls *atomic.Int64
}

func (c *countingFS) handle(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return countingFile{f, &c.calls}, nil
}

func (c *countingFS) Create(name string) (vfs.File, error) {
	c.calls.Add(1)
	return c.handle(c.FS.Create(name))
}

func (c *countingFS) Append(name string) (vfs.File, error) {
	c.calls.Add(1)
	return c.handle(c.FS.Append(name))
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	c.calls.Add(1)
	return c.FS.ReadFile(name)
}

func (c *countingFS) Rename(o, n string) error     { c.calls.Add(1); return c.FS.Rename(o, n) }
func (c *countingFS) Remove(name string) error     { c.calls.Add(1); return c.FS.Remove(name) }
func (c *countingFS) SyncDir(dir string) error     { c.calls.Add(1); return c.FS.SyncDir(dir) }
func (f countingFile) Write(p []byte) (int, error) { f.calls.Add(1); return f.File.Write(p) }
func (f countingFile) Sync() error                 { f.calls.Add(1); return f.File.Sync() }
func (f countingFile) Truncate(n int64) error      { f.calls.Add(1); return f.File.Truncate(n) }
func (f countingFile) Close() error                { f.calls.Add(1); return f.File.Close() }

// TestDatabaseTrimTouchesNoFileOrCounter: a trim's database half deletes
// rows and nothing else — no call reaches the file system (counted by a vfs
// wrapper under faultinject's per-file write counts), no counter moves, and
// no file's generation or the manifest epoch changes.
func TestDatabaseTrimTouchesNoFileOrCounter(t *testing.T) {
	e := newAuditEnv(t)
	prot := newLaneProtector()
	in := faultinject.New(1)
	fs := &countingFS{FS: vfs.OS{}}
	cfg := e.shardConfig("git", 2)
	cfg.Protector, cfg.FS = prot, in.FS(fs)
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
	defer s.Close()

	files := []string{ShardName("git", 0) + ".lseal", ShardName("git", 1) + ".lseal", ManifestFileName("git")}
	counters := []string{ShardName("git", 0), ShardName("git", 1), ManifestCounterName("git")}
	type state struct {
		calls        int64
		writes, ctrs []uint64
		gen          uint64
		epoch, seq   uint64
	}
	take := func() state {
		st := state{calls: fs.calls.Load(), gen: s.Generation(), epoch: s.Epoch(), seq: s.Seq()}
		for _, f := range files {
			st.writes = append(st.writes, uint64(in.Count("fs:"+f)))
		}
		for _, c := range counters {
			n, _ := prot.Read(c)
			st.ctrs = append(st.ctrs, n)
		}
		return st
	}
	before := take()
	if before.calls == 0 || before.writes[0] == 0 || before.ctrs[0] == 0 {
		t.Fatalf("the wrappers saw nothing of the appends: %+v", before)
	}
	trimDatabase(t, e, s, trimLatest)
	if rows, _ := s.DB().TableRowCount("updates"); rows != 2 {
		t.Fatalf("%d rows after the trim, want the 2 latest updates", rows)
	}
	after := take()
	if after.calls != before.calls || !slices.Equal(after.writes, before.writes) {
		t.Fatalf("the database trim reached the file system: %d calls and writes %v, before %d and %v", after.calls, after.writes, before.calls, before.writes)
	}
	if !slices.Equal(after.ctrs, before.ctrs) {
		t.Fatalf("the database trim moved counters %v -> %v", before.ctrs, after.ctrs)
	}
	if after.gen != before.gen || after.epoch != before.epoch || after.seq != before.seq {
		t.Fatalf("the database trim moved the files: generation %d -> %d, epoch %d -> %d, entries %d -> %d",
			before.gen, after.gen, before.epoch, after.epoch, before.seq, after.seq)
	}
}

// encodedRows sums the encodings of the rows s's database holds, the way the
// writers encode them, and counts the rows.
func encodedRows(s *ShardedLog) (bytes, rows int64) {
	for _, table := range s.DB().Tables() {
		trows, _ := s.DB().TableRows(table)
		for _, row := range trows {
			bytes += int64(len((&Entry{Table: table, Values: row}).Marshal()))
		}
		rows += int64(len(trows))
	}
	return bytes, rows
}

// TestCompactDueAtCrossing: with the retained rows fixed, every cycle appends
// an advertisement and trims it away again, so the files grow while a fresh
// image stays put. CompactDue is false at every cycle before the shard files
// reach twice that image and true at the first cycle they do; the compaction
// then brings them down to it.
func TestCompactDueAtCrossing(t *testing.T) {
	e := newAuditEnv(t)
	cfg := e.shardConfig("git", 2)
	cfg.BatchMax = 8
	var s *ShardedLog
	e.call(t, func(env *asyncall.Env) (err error) {
		if s, err = NewSharded(env, cfg); err != nil {
			return err
		}
		// Eight retained updates, one batch: the files start well below twice
		// the image of what they hold.
		var rows []Row
		for i := 0; i < 8; i++ {
			rows = append(rows, Row{Table: "updates", Values: []any{i, fmt.Sprintf("r%d", i), "main", "c", "update"}})
		}
		tk, err := s.Stage(env, 0, rows)
		if err != nil {
			return err
		}
		return tk.Wait(env)
	})
	defer s.Close()
	const trimAds = "DELETE FROM advertisements"
	committed := func() (n int64) {
		for _, v := range s.Files()[:2] {
			n += v.CommittedSize()
		}
		return n
	}
	trimDatabase(t, e, s, trimAds)
	live, rows := encodedRows(s)
	image := live + 5*rows + 2*(int64(len(fileMagic))+sigRecordMax)
	if s.image.Load() != image {
		t.Fatalf("fresh image estimated at %d bytes, want %d", s.image.Load(), image)
	}
	cycles := 0
	for !s.CompactDue() {
		if c := committed(); c >= 2*image {
			t.Fatalf("cycle %d: %d committed bytes against a %d-byte image, and no compaction due", cycles, c, image)
		}
		cycles++
		if cycles > 100 {
			t.Fatal("no compaction due after 100 cycles")
		}
		e.call(t, func(env *asyncall.Env) error {
			return s.Append(env, keyForShard(s, cycles%2), "advertisements", 100+cycles, "r0", "main", "c")
		})
		trimDatabase(t, e, s, trimAds)
	}
	if c := committed(); c < 2*image || cycles < 2 {
		t.Fatalf("compaction due after %d cycles at %d committed bytes, a %d-byte image", cycles, c, image)
	}
	e.call(t, s.Compact)
	// The estimate bounds the image from above: ECDSA scalars may be short.
	if c := committed(); c > image || c < image-8 || s.CompactDue() {
		t.Fatalf("after the compaction: %d committed bytes, due = %v; want the %d-byte image", c, s.CompactDue(), image)
	}
}

// sortedRows renders every row the database holds, one string each, sorted.
func sortedRows(s *ShardedLog) []string {
	var out []string
	for _, table := range s.DB().Tables() {
		trows, _ := s.DB().TableRows(table)
		for _, row := range trows {
			out = append(out, fmt.Sprint(table, row))
		}
	}
	sort.Strings(out)
	return out
}

// TestRecoverAfterDatabaseTrims: K cycles trim the database and never
// compact, then the machine stops. Every row since the last compaction is
// still in the files, so recovery brings back a superset of what the
// database held; the set verifies strictly; and one trim later the tables are
// exactly what they were before the crash.
func TestRecoverAfterDatabaseTrims(t *testing.T) {
	e := newAuditEnv(t)
	cfg := e.shardConfig("git", 2)
	const script = trimLatest + "; DELETE FROM advertisements"
	const k = 3
	var s *ShardedLog
	e.call(t, func(env *asyncall.Env) (err error) {
		s, err = NewSharded(env, cfg)
		return err
	})
	for round := 0; round < k; round++ {
		e.call(t, func(env *asyncall.Env) error {
			for i := 0; i < 4; i++ {
				tm := 5*round + i
				if err := s.Append(env, keyForShard(s, i%2), "updates", tm, fmt.Sprintf("r%d", i%2), "main", fmt.Sprintf("c%d", tm), "update"); err != nil {
					return err
				}
			}
			return s.Append(env, keyForShard(s, round%2), "advertisements", 5*round+4, "r0", "main", fmt.Sprintf("c%d", 5*round))
		})
		trimDatabase(t, e, s, script)
	}
	if s.Generation() != 0 {
		t.Fatal("the set's files were rewritten by a database trim")
	}
	want := sortedRows(s)
	if len(want) != 2 {
		t.Fatalf("the database holds %v, want the latest update of each repo", want)
	}
	// Close writes nothing: the files are what a crash leaves.
	s.Close()

	var rec *ShardedLog
	e.call(t, func(env *asyncall.Env) (err error) {
		rec, err = RecoverSharded(env, cfg, e.encl.PublicKey())
		return err
	})
	defer rec.Close()
	rep, err := e.verifyDir(VerifyOptions{Pub: e.encl.PublicKey(), Protector: e.group})
	if err != nil || rep.TotalEntries != 5*k {
		t.Fatalf("strict verify after recovery: %v, %v; want all %d entries", rep, err, 5*k)
	}
	got := sortedRows(rec)
	for _, row := range want {
		i, found := slices.BinarySearch(got, row)
		if !found {
			t.Fatalf("recovered rows %v lack %s", got, row)
		}
		got = slices.Delete(got, i, i+1)
	}
	if len(got) == 0 {
		t.Fatal("recovery brought back no trimmed row: the files were rewritten after all")
	}
	trimDatabase(t, e, rec, script)
	if got := sortedRows(rec); !slices.Equal(got, want) {
		t.Fatalf("one trim after recovery the database holds %v, want %v", got, want)
	}
}

// TestMemoryModeCompactsNothing: a set with no files has nothing to compact.
// After a trim CompactDue is false, and Compact — which Trim and TrimNow run
// regardless — leaves every shard's chain position where the appends put it
// and counts no compaction.
func TestMemoryModeCompactsNothing(t *testing.T) {
	e := newAuditEnv(t)
	var s *ShardedLog
	e.call(t, func(env *asyncall.Env) (err error) {
		if s, err = NewSharded(env, ShardedConfig{Config: Config{Name: "git", Schema: testSchema, Mode: ModeMemory}, Shards: 2}); err != nil {
			return err
		}
		for i := 0; i < 6; i++ {
			if err := s.Append(env, keyForShard(s, i%2), "updates", i, fmt.Sprintf("r%d", i%2), "main", fmt.Sprintf("c%d", i), "update"); err != nil {
				return err
			}
		}
		return nil
	})
	defer s.Close()
	trimDatabase(t, e, s, trimLatest)
	if s.CompactDue() {
		t.Fatal("a compaction is due on a set with no files")
	}
	compactions := mCompactions.Value()
	e.call(t, func(env *asyncall.Env) error { return trimSet(env, s, []string{trimLatest}) })
	if n := mCompactions.Value() - compactions; n != 0 || s.Seq() != 6 {
		t.Fatalf("%d compactions and chain position %d after Trim, want none and the 6 entries appended", n, s.Seq())
	}
	if rows, _ := s.DB().TableRowCount("updates"); rows != 2 {
		t.Fatalf("%d rows after the trims, want the 2 latest updates", rows)
	}
}
