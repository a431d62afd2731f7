package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"libseal/internal/audit"
	"libseal/internal/httpparse"
	"libseal/internal/ssm"
	"libseal/internal/ssm/gitssm"
)

// pairMod is a minimal instrumentation SSM: every pair logs exactly one
// tuple carrying its logical time, and the single "invariant" flags every
// row. A check's violation therefore captures the full table as seen by its
// snapshot, which lets tests compare what a check saw against the chain
// position it attests.
type pairMod struct{}

func (pairMod) Name() string   { return "pairs" }
func (pairMod) Schema() string { return "CREATE TABLE pairs (t INTEGER)" }
func (pairMod) HandlePair(st *ssm.State, req, rsp []byte) ([]ssm.Tuple, error) {
	return []ssm.Tuple{{Table: "pairs", Values: []any{st.Time}}}, nil
}
func (pairMod) Invariants() []ssm.Invariant {
	return []ssm.Invariant{{
		Name: "every-pair", Kind: "soundness",
		Description: "flags every logged pair (test instrumentation)",
		SQL:         "SELECT t FROM pairs",
	}}
}
func (pairMod) TrimQueries() []string { return nil }

// TestCheckSyncEndToEnd drives the clean Git workload with a check+trim cycle
// after every pair: each cycle runs on the request path of the pair that
// exhausted the budget, so its verdict is in before the client sees the
// response; CheckNow agrees; and Close after checks is clean.
func TestCheckSyncEndToEnd(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{
		Module:     gitssm.New(),
		AuditMode:  audit.ModeMemory,
		CheckEvery: 1,
	})
	backend := newGitBackend()
	c := dialGit(t, env, ls, backend)

	c.push(t, "repo", "create main c1")
	c.push(t, "repo", "update main c2")
	if st := ls.StatsSnapshot(); st.Checks != 2 || st.Trims != 1 || st.TrimsSkipped != 1 {
		t.Fatalf("after two pushes: %+v, want 2 checks, 1 skipped trim, 1 trim", st)
	}
	if result, err := ls.CheckNow(); err != nil || result != "ok" {
		t.Fatalf("CheckNow = %q, %v", result, err)
	}
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckSyncDetectsRollback: the cycle of the request that logged the
// rolled-back advertisement finds it, and the violation carries the chain
// position its snapshot attested.
func TestCheckSyncDetectsRollback(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{
		Module:     gitssm.New(),
		AuditMode:  audit.ModeMemory,
		CheckEvery: 1,
	})
	backend := newGitBackend()
	c := dialGit(t, env, ls, backend)

	c.push(t, "repo", "create main c1")
	c.push(t, "repo", "update main c2")
	backend.setRollback("main", "c1")
	c.fetch(t, "repo", false)

	viols := ls.Violations()
	if len(viols) != 1 || viols[0].Invariant != "git-soundness" {
		t.Fatalf("violations = %+v", viols)
	}
	// The second push's cycle trimmed the stale c1 update from the database,
	// but the chain position counts every entry logged — a trim's database
	// half leaves it alone, and memory mode never compacts — so the violating
	// snapshot sits at position 3: both updates and the rolled-back
	// advertisement.
	if viols[0].ChainSeq != 3 {
		t.Fatalf("ChainSeq = %d, want 3: %+v", viols[0].ChainSeq, viols[0])
	}
}

// TestSyncCheckChainPositionConsistency is the snapshot-isolation race test:
// three clients append concurrently, every pair runs a check on its own
// request path while the others keep appending, and every check must see
// exactly the prefix its ChainSeq claims — with pairMod, a snapshot at chain
// position N contains the pairs timed 1..N, no more, no fewer, no tears. Run
// under -race.
func TestSyncCheckChainPositionConsistency(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{
		Module:     pairMod{},
		AuditMode:  audit.ModeMemory,
		CheckEvery: 1,
	})
	backend := newGitBackend()

	const clients, pushes = 3, 15
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		c := dialGit(t, env, ls, backend)
		wg.Add(1)
		go func(c *gitClient, id int) {
			defer wg.Done()
			repo := fmt.Sprintf("repo%d", id)
			for j := 0; j < pushes; j++ {
				req := httpparse.NewRequest("POST", "/git/"+repo+"/git-receive-pack",
					[]byte(fmt.Sprintf("update main c%d", j)))
				if _, err := c.conn.Write(req.Bytes()); err != nil {
					t.Error(err)
					return
				}
				rsp, err := httpparse.ReadResponse(c.br)
				if err != nil {
					t.Error(err)
					return
				}
				if rsp.Status != 200 {
					t.Errorf("push status %d", rsp.Status)
					return
				}
			}
		}(c, i)
	}
	wg.Wait()

	viols := ls.Violations()
	if len(viols) == 0 {
		t.Fatal("no checks completed")
	}
	for _, v := range viols {
		n := uint64(len(v.Rows.Rows))
		if n != v.ChainSeq {
			t.Fatalf("check at chain position %d saw %d pairs", v.ChainSeq, n)
		}
		var max int64
		seen := make(map[int64]bool, len(v.Rows.Rows))
		for _, row := range v.Rows.Rows {
			tm := row[0].Int64()
			if seen[tm] {
				t.Fatalf("duplicate pair time %d at chain position %d", tm, v.ChainSeq)
			}
			seen[tm] = true
			if tm > max {
				max = tm
			}
		}
		if uint64(max) != v.ChainSeq {
			t.Fatalf("chain position %d but max pair time %d: not a prefix", v.ChainSeq, max)
		}
	}

	// Accounting: with CheckEvery=1 every push runs a cycle, and the nil trim
	// set means every cycle's trim is skipped, never quiescing the log.
	st := ls.StatsSnapshot()
	if st.Pairs != clients*pushes {
		t.Fatalf("pairs = %d, want %d", st.Pairs, clients*pushes)
	}
	if st.Checks != st.Pairs {
		t.Fatalf("checks %d != pairs %d", st.Checks, st.Pairs)
	}
	if st.Trims != 0 || st.TrimsSkipped != st.Checks {
		t.Fatalf("trims = %d, skipped = %d, checks = %d", st.Trims, st.TrimsSkipped, st.Checks)
	}
}

// TestTrimKeepsRowsStagedDuringCycle is the regression test for the hole a
// cycle used to have between its capture and its trim: the trim queries ran
// on the live database, and the Git module's opens with an unconditional
// DELETE FROM advertisements, so an advertisement another connection staged
// in that window was deleted without any check having seen it — a false
// "clean". Connection B fetches a rolled-back ref 300 times while connection A
// keeps pushing, a cycle after every pair on both; each of the 300
// advertisements must turn up in some check's violation rows.
func TestTrimKeepsRowsStagedDuringCycle(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{
		Module:     gitssm.New(),
		AuditMode:  audit.ModeMemory,
		CheckEvery: 1,
	})
	a := dialGit(t, env, ls, newGitBackend())
	backendB := newGitBackend()
	b := dialGit(t, env, ls, backendB)

	b.push(t, "repo", "create main c1")
	b.push(t, "repo", "update main c2")
	backendB.setRollback("main", "c1")

	stop := make(chan struct{})
	pusherDone := make(chan struct{})
	go func() {
		defer close(pusherDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			req := httpparse.NewRequest("POST", "/git/other/git-receive-pack", []byte(fmt.Sprintf("update main a%d", i)))
			if _, err := a.conn.Write(req.Bytes()); err != nil {
				t.Error(err)
				return
			}
			if _, err := httpparse.ReadResponse(a.br); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	const fetches = 300
	for i := 0; i < fetches; i++ {
		b.fetch(t, "repo", false)
	}
	close(stop)
	<-pusherDone
	if _, err := ls.CheckNow(); err != nil {
		t.Fatal(err)
	}

	flagged := map[int64]bool{}
	for _, v := range ls.Violations() {
		if v.Invariant != "git-soundness" {
			t.Fatalf("unexpected violation %+v", v)
		}
		for _, row := range v.Rows.Rows {
			flagged[row[0].Int64()] = true
		}
	}
	if len(flagged) != fetches {
		t.Fatalf("%d of %d rolled-back advertisements were flagged: the others were trimmed unchecked", len(flagged), fetches)
	}
}

// diskEntries verifies the one-shard disk log in dir and returns its entry
// count, and the rows its database holds.
func diskEntries(t *testing.T, env *coreEnv, ls *LibSEAL, dir string) (entries, rows int) {
	t.Helper()
	es, err := verifyLogFile(dir+"/git-shard0.lseal", audit.VerifyOptions{Pub: env.encl.PublicKey()})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	for _, table := range ls.Log().DB().Tables() {
		n, _ := ls.Log().DB().TableRowCount(table)
		rows += n
	}
	return len(es), rows
}

// TestTrimNowAlwaysCompacts: whoever asks for a trim by name wants the disk
// back. TrimNow's cycle compacts the log file after its trim, and again when
// its trim deletes nothing, and each time the file is left holding exactly
// the rows the database does.
func TestTrimNowAlwaysCompacts(t *testing.T) {
	env := newCoreEnv(t)
	dir := t.TempDir()
	ls := newGitLibSEAL(t, env, Config{Module: gitssm.New(), AuditMode: audit.ModeDisk, AuditDir: dir})
	c := dialGit(t, env, ls, newGitBackend())
	c.push(t, "repo", "create main c1")
	c.push(t, "repo", "update main c2")
	c.fetch(t, "repo", false)
	for i, want := range []Stats{{Trims: 1, Compactions: 1}, {Trims: 1, TrimsSkipped: 1, Compactions: 2}} {
		if err := ls.TrimNow(); err != nil {
			t.Fatal(err)
		}
		st := ls.StatsSnapshot()
		if st.Trims != want.Trims || st.TrimsSkipped != want.TrimsSkipped || st.Compactions != want.Compactions || st.TrimFailures != 0 {
			t.Fatalf("after TrimNow %d: %+v, want %+v", i+1, st, want)
		}
		if entries, rows := diskEntries(t, env, ls, dir); entries != 1 || rows != 1 {
			t.Fatalf("after TrimNow %d: %d entries on disk, %d rows; want the c2 update alone in both", i+1, entries, rows)
		}
		if gen := ls.Log().Files()[0].Generation(); gen != uint64(2*(i+1)) {
			t.Fatalf("after TrimNow %d: file generation %d, want %d (one rewrite each)", i+1, gen, 2*(i+1))
		}
	}
}

// TestNothingTrimmedNeverCompacts: a cycle whose trim deletes nothing leaves
// no dead byte behind, so a log whose cycles never trim is never rewritten,
// however long its file grows.
func TestNothingTrimmedNeverCompacts(t *testing.T) {
	env := newCoreEnv(t)
	dir := t.TempDir()
	ls := newGitLibSEAL(t, env, Config{Module: gitssm.New(), AuditMode: audit.ModeDisk, AuditDir: dir, CheckEvery: 1})
	c := dialGit(t, env, ls, newGitBackend())
	const pushes = 30
	for i := 0; i < pushes; i++ {
		c.push(t, "repo", fmt.Sprintf("create b%d c%d", i, i))
	}
	st := ls.StatsSnapshot()
	if st.Checks != pushes || st.TrimsSkipped != pushes || st.Trims != 0 || st.Compactions != 0 {
		t.Fatalf("stats = %+v, want %d cycles that all skipped their trim and never compacted", st, pushes)
	}
	if gen := ls.Log().Files()[0].Generation(); gen != 0 {
		t.Fatalf("file generation %d: the log was rewritten", gen)
	}
	if entries, rows := diskEntries(t, env, ls, dir); entries != pushes || rows != pushes {
		t.Fatalf("%d entries on disk, %d rows; want all %d pushes in both", entries, rows, pushes)
	}
}

// TestSyncCheckViolationChainSeq pins the sync path too: in-band and
// CheckNow checks stamp violations with the attested position.
func TestSyncCheckViolationChainSeq(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{Module: gitssm.New(), AuditMode: audit.ModeMemory})
	backend := newGitBackend()
	c := dialGit(t, env, ls, backend)

	c.push(t, "repo", "create main c1")
	c.push(t, "repo", "update main c2")
	backend.setRollback("main", "c1")
	// First fetch logs the rolled-back advertisement; the second carries the
	// in-band check, which now sees it.
	c.fetch(t, "repo", false)
	rsp := c.fetch(t, "repo", true)
	result := rsp.Header.Get(CheckResultHeader)
	if result != "" && !strings.HasPrefix(result, "violation:") {
		t.Fatalf("in-band result = %q", result)
	}
	if r, err := ls.CheckNow(); err != nil || !strings.HasPrefix(r, "violation:") {
		t.Fatalf("CheckNow = %q, %v", r, err)
	}
	staged := ls.Log().Seq() + uint64(ls.Log().PendingStaged())
	for _, v := range ls.Violations() {
		if v.ChainSeq == 0 || v.ChainSeq > staged {
			t.Fatalf("bad ChainSeq %d (log at %d)", v.ChainSeq, staged)
		}
	}
}
