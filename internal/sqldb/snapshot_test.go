package sqldb

import (
	"errors"
	"sync"
	"testing"
)

// snapQuery parses one SELECT and runs it on the snapshot, as a check runs
// its prepared invariants.
func snapQuery(s *Snapshot, sql string) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.QueryStmt(&Stmt{st: st})
}

func snapCount(t *testing.T, s *Snapshot, sql string) int64 {
	t.Helper()
	res, err := snapQuery(s, sql)
	if err != nil {
		t.Fatalf("snapshot Query(%q): %v", sql, err)
	}
	return res.Rows[0][0].Int64()
}

func TestSnapshotIsolatedFromInsert(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2)")
	snap := db.Snapshot()
	mustExec(t, db, "INSERT INTO t VALUES (3)")
	if n := snapCount(t, snap, "SELECT COUNT(*) FROM t"); n != 2 {
		t.Fatalf("snapshot sees %d rows after live INSERT, want 2", n)
	}
	if res := mustQuery(t, db, "SELECT a FROM t"); flat(res) != "1;2;3" {
		t.Fatalf("live table = %q", flat(res))
	}
}

func TestSnapshotIsolatedFromDelete(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3)")
	snap := db.Snapshot()
	mustExec(t, db, "DELETE FROM t WHERE a < 3")
	if n := snapCount(t, snap, "SELECT COUNT(*) FROM t"); n != 3 {
		t.Fatalf("snapshot sees %d rows after live DELETE, want 3", n)
	}
	// Rows stored after the DELETE land in the live table's fresh array, not
	// over the one the snapshot reads.
	mustExec(t, db, "INSERT INTO t VALUES (7), (8), (9)")
	res, err := snapQuery(snap, "SELECT a FROM t")
	if err != nil || flat(res) != "1;2;3" {
		t.Fatalf("snapshot = %q, %v after live DELETE+INSERT, want 1;2;3", flat(res), err)
	}
	if res := mustQuery(t, db, "SELECT a FROM t"); flat(res) != "3;7;8;9" {
		t.Fatalf("live = %q", flat(res))
	}
}

// The truncation hazard: RemoveLastRows shortens the shared array, and a
// later INSERT would overwrite the truncated suffix in place if the writer
// did not clip capacity while the table is shared.
func TestSnapshotIsolatedFromTruncateThenInsert(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3)")
	snap := db.Snapshot()
	if err := db.RemoveLastRows("t", 2); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO t VALUES (99), (98)")
	res, err := snapQuery(snap, "SELECT a FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if flat(res) != "1;2;3" {
		t.Fatalf("snapshot = %q after truncate+reinsert, want 1;2;3", flat(res))
	}
	if res := mustQuery(t, db, "SELECT a FROM t ORDER BY a"); flat(res) != "1;98;99" {
		t.Fatalf("live = %q", flat(res))
	}
}

func TestSnapshotQueryStmtWithParams(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1,'x'), (2,'y')")
	stmt, err := db.Prepare("SELECT b FROM t WHERE a = ?")
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	mustExec(t, db, "DELETE FROM t WHERE a = 2")
	res, err := snap.QueryStmt(stmt, 2)
	if err != nil {
		t.Fatal(err)
	}
	if flat(res) != "y" {
		t.Fatalf("QueryStmt = %q, want y", flat(res))
	}
}

func prepareAll(t *testing.T, db *DB, queries ...string) []*Stmt {
	t.Helper()
	var stmts []*Stmt
	for _, q := range queries {
		st, err := db.PrepareScript(q)
		if err != nil {
			t.Fatalf("PrepareScript(%q): %v", q, err)
		}
		stmts = append(stmts, st...)
	}
	return stmts
}

func TestSnapshotPlanTrim(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "CREATE TABLE u (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3)")
	mustExec(t, db, "INSERT INTO u VALUES (7)")

	if plan, err := db.Snapshot().PlanTrim(prepareAll(t, db, "DELETE FROM t WHERE a > 5")); err != nil || plan.Deleted() != 0 {
		t.Fatalf("PlanTrim(nothing matches) = %+v, %v", plan, err)
	}
	// Statements run in script order: the second sees what the first left.
	snap := db.Snapshot()
	plan, err := snap.PlanTrim(prepareAll(t, db, "DELETE FROM t WHERE a > 1", "DELETE FROM t WHERE a NOT IN (SELECT MAX(a) FROM t)"))
	if err != nil || plan.Deleted() != 2 {
		t.Fatalf("PlanTrim = %+v, %v; want 2 deleted", plan, err)
	}
	// Planning works on the snapshot: the database is untouched until the
	// plan is applied, and a table the script left alone stays as it is.
	if res := mustQuery(t, db, "SELECT a FROM t"); flat(res) != "1;2;3" {
		t.Fatalf("live table after PlanTrim = %q", flat(res))
	}
	if err := db.ApplyTrim(plan); err != nil {
		t.Fatal(err)
	}
	if res := mustQuery(t, db, "SELECT a FROM t"); flat(res) != "1" {
		t.Fatalf("live table after ApplyTrim = %q, want 1", flat(res))
	}
	if res := mustQuery(t, db, "SELECT a FROM u"); flat(res) != "7" {
		t.Fatalf("untouched table = %q", flat(res))
	}
	// A plan is spent once applied.
	if err := db.ApplyTrim(plan); !errors.Is(err, ErrTrimStale) {
		t.Fatalf("second ApplyTrim = %v, want ErrTrimStale", err)
	}
	if _, err := db.Snapshot().PlanTrim(prepareAll(t, db, "SELECT * FROM t")); err == nil {
		t.Fatal("PlanTrim accepted a SELECT")
	}
}

const gitTrimSchema = `CREATE TABLE updates (time INTEGER, repo TEXT, branch TEXT, cid TEXT, type TEXT);
	CREATE TABLE advertisements (time INTEGER, repo TEXT, branch TEXT, cid TEXT)`

// TestTrimPlanKeepsRowsAppendedSinceCapture is the check-then-trim rule one
// layer below core: a trim deletes only rows its snapshot saw. Rows that
// reach a checked-once table after the capture survive the unconditional
// DELETE, and the retained update is the snapshot's latest, not the live
// table's.
func TestTrimPlanKeepsRowsAppendedSinceCapture(t *testing.T) {
	db := New()
	mustExec(t, db, gitTrimSchema)
	mustExec(t, db, `INSERT INTO updates VALUES (1,'r','main','c1','create'), (2,'r','main','c2','update')`)
	mustExec(t, db, `INSERT INTO advertisements VALUES (3,'r','main','c2')`)
	snap := db.Snapshot()
	mustExec(t, db, `INSERT INTO advertisements VALUES (4,'r','main','c1'), (6,'r','main','c1')`)
	mustExec(t, db, `INSERT INTO updates VALUES (5,'r','main','c3','update')`)

	plan, err := snap.PlanTrim(prepareAll(t, db, gitTrimQueries...))
	if err != nil || plan.Deleted() != 2 {
		t.Fatalf("PlanTrim = %+v, %v; want the checked advertisement and the stale update", plan, err)
	}
	if err := db.ApplyTrim(plan); err != nil {
		t.Fatal(err)
	}
	if res := mustQuery(t, db, "SELECT time FROM advertisements"); flat(res) != "4;6" {
		t.Fatalf("advertisements = %q, want the two staged after the capture", flat(res))
	}
	if res := mustQuery(t, db, "SELECT time FROM updates"); flat(res) != "2;5" {
		t.Fatalf("updates = %q, want the snapshot's latest (2) and the one appended since (5)", flat(res))
	}
	// The next trim, on a snapshot that saw them, takes them.
	plan, err = db.Snapshot().PlanTrim(prepareAll(t, db, gitTrimQueries...))
	if err != nil || plan.Deleted() != 3 {
		t.Fatalf("second PlanTrim = %+v, %v", plan, err)
	}
}

// TestTrimPlanStaleRefused: a plan whose captured rows are no longer the
// leading rows of a live table must not be spliced in — the survivors it
// holds would resurrect or misplace rows. It is refused whole: the other
// tables of the plan stay untrimmed too.
func TestTrimPlanStaleRefused(t *testing.T) {
	// The two writers that can take a captured row away: a DELETE, and a
	// truncation of rows the snapshot saw (even when as many are stored
	// again, so the table is as long as it was).
	meddlers := map[string]func(db *DB){
		"DELETE": func(db *DB) { mustExec(t, db, "DELETE FROM updates WHERE time = 1") },
		"RemoveLastRows": func(db *DB) {
			if err := db.RemoveLastRows("updates", 1); err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, `INSERT INTO updates VALUES (9,'r','main','c9','update')`)
		},
	}
	for name, meddle := range meddlers {
		db := New()
		mustExec(t, db, gitTrimSchema)
		mustExec(t, db, `INSERT INTO updates VALUES (1,'r','main','c1','create'), (2,'r','main','c2','update')`)
		mustExec(t, db, `INSERT INTO advertisements VALUES (3,'r','main','c2')`)
		snap := db.Snapshot()
		meddle(db)
		plan, err := snap.PlanTrim(prepareAll(t, db, gitTrimQueries...))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.ApplyTrim(plan); !errors.Is(err, ErrTrimStale) {
			t.Fatalf("ApplyTrim after %s = %v, want ErrTrimStale", name, err)
		}
		if n, _ := db.TableRowCount("advertisements"); n != 1 {
			t.Fatalf("after %s a refused plan still trimmed advertisements (%d rows)", name, n)
		}
	}
}

// Writers mutate continuously while snapshots are captured and queried.
// Each snapshot must see a consistent instant: the live seqs always form
// the contiguous range [min, max] (INSERT appends at the top, RemoveLastRows
// takes from the top, DELETE from the bottom), and every row is whole: twin
// is seq in the row as it was stored. Run under -race.
func TestSnapshotConsistentUnderConcurrentWriters(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (seq INTEGER, twin INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (0, 0)")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq++
			if _, err := db.Exec("INSERT INTO t VALUES (?, ?)", seq, seq); err != nil {
				t.Error(err)
				return
			}
			if seq%17 == 0 {
				if _, err := db.Exec("DELETE FROM t WHERE seq < ?", seq-30); err != nil {
					t.Error(err)
					return
				}
			}
			if seq%23 == 0 {
				if err := db.RemoveLastRows("t", 1); err != nil {
					t.Error(err)
					return
				}
				seq--
			}
		}
	}()

	for i := 0; i < 300; i++ {
		snap := db.Snapshot()
		res, err := snapQuery(snap, "SELECT COUNT(*), MIN(seq), MAX(seq) FROM t")
		if err != nil {
			t.Fatal(err)
		}
		count, min, max := res.Rows[0][0].Int64(), res.Rows[0][1].Int64(), res.Rows[0][2].Int64()
		if count != max-min+1 {
			t.Fatalf("snapshot %d inconsistent: count=%d range [%d,%d]", i, count, min, max)
		}
		torn, err := snapQuery(snap, "SELECT COUNT(*) FROM t WHERE twin != seq")
		if err != nil {
			t.Fatal(err)
		}
		if n := torn.Rows[0][0].Int64(); n != 0 {
			t.Fatalf("snapshot %d saw %d torn rows", i, n)
		}
	}
	close(stop)
	wg.Wait()
}
