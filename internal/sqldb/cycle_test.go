package sqldb

import (
	"fmt"
	"math/rand"
	"testing"
)

// cycleDB is the Git database one check+trim cycle of the git_check workload
// sees: 64 repos x 8 branches created once (the retained rows), then one
// cycle's traffic — 14 pushes and one advertisement of a repo's 8 branches —
// 534 rows in all.
func cycleDB(t testing.TB) *DB {
	db := New()
	if _, err := db.Exec(gitAuditSchema); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	clock := 0
	heads := map[string]string{}
	push := func(repo, branch, typ string) {
		clock++
		cid := fmt.Sprintf("%040x", rng.Uint64())
		heads[repo+"/"+branch] = cid
		if _, err := db.Exec("INSERT INTO updates VALUES (?,?,?,?,?)", clock, repo, branch, cid, typ); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 64; r++ {
		for b := 0; b < 8; b++ {
			push(fmt.Sprintf("r%d", r), fmt.Sprintf("b%d", b), "create")
		}
	}
	for i := 0; i < 14; i++ {
		push(fmt.Sprintf("r%d", rng.Intn(64)), fmt.Sprintf("b%d", rng.Intn(8)), "update")
	}
	clock++
	for b := 0; b < 8; b++ {
		branch := fmt.Sprintf("b%d", b)
		if _, err := db.Exec("INSERT INTO advertisements VALUES (?,?,?,?)", clock, "r7", branch, heads["r7/"+branch]); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// cycleStatements prepares what a cycle runs: the two invariants, then the
// trim script.
func cycleStatements(t testing.TB, db *DB) (invariants, trims []*Stmt) {
	for _, q := range []string{gitSoundnessSQL, gitCompletenessSQL} {
		st, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		invariants = append(invariants, st)
	}
	trims, err := db.PrepareScript(gitTrimSQL)
	if err != nil {
		t.Fatal(err)
	}
	return invariants, trims
}

// runCycleStatements evaluates a cycle's statements on a fresh snapshot, as
// the check+trim cycle does, and returns how many rows the plan deleted.
func runCycleStatements(t testing.TB, db *DB, invariants, trims []*Stmt) int {
	snap := db.Snapshot()
	for _, st := range invariants {
		res, err := snap.QueryStmt(st)
		if err != nil || !res.Empty() {
			t.Fatalf("invariant: %v, %v", res, err)
		}
	}
	plan, err := snap.PlanTrim(trims)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Deleted()
}

// TestCycleStatementAllocs bounds what one cycle's SQL allocates on the
// 534-row fixture: a group, set or index key is looked up from a reused
// buffer, and a loop reuses one row scope, so the trim plan allocates per
// group rather than per row. (Run without the race detector, which changes
// the count.)
func TestCycleStatementAllocs(t *testing.T) {
	db := cycleDB(t)
	rows := 0
	for _, name := range []string{"updates", "advertisements"} {
		n, _ := db.TableRowCount(name)
		rows += n
	}
	if rows != 534 {
		t.Fatalf("fixture holds %d rows, want 534", rows)
	}
	invariants, trims := cycleStatements(t, db)
	if n := runCycleStatements(t, db, invariants, trims); n != 22 {
		t.Fatalf("plan deletes %d rows, want the 14 superseded updates and the 8 advertisements", n)
	}
	plan := testing.AllocsPerRun(5, func() { db.Snapshot().PlanTrim(trims) })
	check := testing.AllocsPerRun(5, func() {
		snap := db.Snapshot()
		for _, st := range invariants {
			snap.QueryStmt(st)
		}
	})
	t.Logf("per cycle on %d rows: PlanTrim %.0f allocations (%.2f per row), invariants %.0f", rows, plan, plan/float64(rows), check)
	if plan > 3*float64(rows) {
		t.Fatalf("PlanTrim allocates %.2f times per row, want at most 3", plan/float64(rows))
	}
}

// BenchmarkCycleStatements times the two invariants and the trim plan on the
// 534-row fixture, separately.
func BenchmarkCycleStatements(b *testing.B) {
	db := cycleDB(b)
	invariants, trims := cycleStatements(b, db)
	b.Run("invariants", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap := db.Snapshot()
			for _, st := range invariants {
				snap.QueryStmt(st)
			}
		}
	})
	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db.Snapshot().PlanTrim(trims)
		}
	})
}
