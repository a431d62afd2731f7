package sqldb

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// oracleEvalIn is evalIn as it was before IN probed a hashed set: collect
// every candidate, then compare them one by one. It defines what IN means;
// the engine must agree with it on every value, NULLs and NOT included.
func oracleEvalIn(ev *evaluator, x *InExpr, s *rowScope) (Value, error) {
	v, err := ev.eval(x.X, s)
	if err != nil {
		return Null(), err
	}
	var candidates []Value
	res, err := ev.execSelectCached(x.Select, s)
	if err != nil {
		return Null(), err
	}
	for _, row := range res.Rows {
		if len(row) != 1 {
			return Null(), fmt.Errorf("sqldb: IN subquery must return one column, got %d", len(row))
		}
		candidates = append(candidates, row[0])
	}
	if v.IsNull() {
		return Null(), nil
	}
	sawNull := false
	for _, cv := range candidates {
		cmp, ok := CompareSQL(v, cv)
		if !ok {
			sawNull = true
			continue
		}
		if cmp == 0 {
			return Bool(!x.Not), nil
		}
	}
	if sawNull {
		return Null(), nil
	}
	return Bool(x.Not), nil
}

// tableScope is the scope a DELETE, or a SELECT from the one table, evaluates
// a row in.
func tableScope(t *Table, row []Value) *rowScope {
	return &rowScope{cols: tableCols(t, strings.ToLower(t.Name)), row: row}
}

// diffIn evaluates `<stmt> ... WHERE <in-expr>` row by row over the
// statement's table with the engine and with the oracle, each through one
// evaluator as a statement would, and requires the same answer — value,
// NULL-ness and error — on every row. It returns how many rows matched.
func diffIn(t *testing.T, db *DB, sql string, nocache bool) int {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	var table string
	var where Expr
	switch x := st.(type) {
	case *DeleteStmt:
		table, where = x.Table, x.Where
	case *SelectStmt:
		table, where = x.From.(*TableName).Name, x.Where
	default:
		t.Fatalf("%q: not a DELETE or a single-table SELECT", sql)
	}
	in, ok := where.(*InExpr)
	if !ok {
		t.Fatalf("%q: WHERE is not an IN expression", sql)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	engine, oracle := db.evaluator(nil), db.evaluator(nil)
	engine.nocache, oracle.nocache = nocache, nocache
	tbl := db.tables[strings.ToLower(table)]
	matched := 0
	for i, row := range tbl.Rows {
		got, gerr := engine.evalIn(in, tableScope(tbl, row))
		want, werr := oracleEvalIn(oracle, in, tableScope(tbl, row))
		if (gerr != nil) != (werr != nil) || got.kind != want.kind || Compare(got, want) != 0 {
			t.Fatalf("%q (nocache=%v), row %d %v:\n  engine: %v, %v\n  oracle: %v, %v", sql, nocache, i, row, got, gerr, want, werr)
		}
		if truth, _ := got.Truth(); truth {
			matched++
		}
	}
	return matched
}

// inEdgeDB holds member groups and, for every group, every probe value: the
// cross product of the value classes where a hashed set could part from
// comparison — NULL on either side, an empty set, an integer against text of
// the same digits, duplicates, and integers at ±2^53 and the int64 limits.
func inEdgeDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, "CREATE TABLE members (g INTEGER, m); CREATE TABLE probes (g INTEGER, k, hit)")
	groups := [][]any{
		1: {1, 2, 3, 2, 2},
		2: {1, nil, 3},
		3: {}, // empty set
		4: {0, -1, "0"},
		5: {"a", "b", "1", ""},
		6: {int64(1<<53 + 1), int64(-1 << 53), int64(1e18)},
		7: {nil, nil},
		8: {int64(1<<53 + 1), int64(1e18) + 1, int64(-1<<53 - 1)},
		9: {int64(math.MaxInt64), int64(math.MinInt64), nil},
	}
	probes := []any{
		nil, 1, 2, 0, -1, 4,
		"a", "b", "1", "0", "",
		int64(1 << 53), int64(1<<53 + 1), int64(-1 << 53), int64(-1<<53 - 1),
		int64(1e18), int64(1e18) + 1, int64(math.MaxInt64), int64(math.MinInt64),
	}
	for g, members := range groups {
		if g == 0 {
			continue
		}
		for _, m := range members {
			mustExec(t, db, "INSERT INTO members VALUES (?, ?)", g, m)
		}
		for _, k := range probes {
			mustExec(t, db, "INSERT INTO probes VALUES (?, ?, NULL)", g, k)
		}
	}
	return db
}

// TestInDifferentialEdgeValues compares the engine's IN with the oracle over
// the edge matrix: one cached set per statement and one per correlated
// binding, each with the subquery cache on and off.
func TestInDifferentialEdgeValues(t *testing.T) {
	db := inEdgeDB(t)
	var queries []string
	for _, not := range []string{"", "NOT "} {
		// Correlated: one set per group, probed by that group's rows.
		queries = append(queries, "SELECT * FROM probes WHERE k "+not+"IN (SELECT m FROM members WHERE g = probes.g)")
		// Two bindings per set.
		queries = append(queries, "SELECT * FROM probes WHERE k "+not+"IN (SELECT m FROM members WHERE g = probes.g AND m != probes.k)")
		for g := 1; g <= 9; g++ {
			queries = append(queries, fmt.Sprintf("SELECT * FROM probes WHERE k %sIN (SELECT m FROM members WHERE g = %d)", not, g))
		}
		// Two columns: both refuse.
		queries = append(queries, "SELECT * FROM probes WHERE k "+not+"IN (SELECT g, m FROM members)")
	}
	for _, q := range queries {
		for _, nocache := range []bool{false, true} {
			diffIn(t, db, q, nocache)
		}
	}

	// End to end, through the public switch: the cached and the uncached run
	// of a statement return the rows the oracle marks.
	for _, q := range queries {
		// Not the two-column form: an error either way.
		if strings.Contains(q, "SELECT g, m") {
			continue
		}
		want := diffIn(t, db, q, true)
		for _, cached := range []bool{true, false} {
			res, err := QueryWithCache(db, q, cached)
			if err != nil || len(res.Rows) != want {
				t.Fatalf("QueryWithCache(%q, %v) = %d rows, %v; the oracle matches %d", q, cached, len(res.Rows), err, want)
			}
		}
	}
}

// gitTrimQueries is gitssm.TrimQueries(), verbatim from §5.1 (importing the
// module here would be an import cycle).
var gitTrimQueries = []string{
	`DELETE FROM advertisements`,
	`DELETE FROM updates WHERE time NOT IN
	(SELECT MAX(time) FROM updates GROUP BY repo, branch)`,
}

// TestInDifferentialGitCorpus runs the paper's trim queries over the Git
// corpus the way the check cycle does — planned on a snapshot — and the way
// a script does — executed on the database — and requires both to remove
// exactly the rows the oracle marks.
func TestInDifferentialGitCorpus(t *testing.T) {
	db := New()
	multiRepoGit(t, db)
	snap := db.Snapshot()
	for _, q := range gitTrimQueries {
		st, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		del := st.st.(*DeleteStmt)
		before, _ := db.TableRowCount(del.Table)
		want := before
		if del.Where != nil {
			for _, nocache := range []bool{false, true} {
				want = diffIn(t, db, q, nocache)
			}
		}
		plan, err := snap.PlanTrim([]*Stmt{st})
		if err != nil || plan.Deleted() != want {
			t.Fatalf("PlanTrim(%q) = %+v, %v; the oracle matches %d", q, plan, err, want)
		}
		if got := mustExec(t, db, q); got != want {
			t.Fatalf("Exec(%q) removed %d rows, the oracle matches %d of %d", q, got, want, before)
		}
	}
	// 4 repos x 3 branches: one retained update each.
	if n, _ := db.TableRowCount("updates"); n != 12 {
		t.Fatalf("%d updates retained, want the latest of each of 12 branches", n)
	}
}

// TestInTrimAllocationScales: the trim DELETE probes one cached subquery
// result from every row of the table. Copying that result per row made the
// statement's allocation quadratic in the retained rows (4x the rows, ~16x
// the bytes); against a hashed set it grows with the rows.
func TestInTrimAllocationScales(t *testing.T) {
	trimAlloc := func(branches int) uint64 {
		db := New()
		mustExec(t, db, "CREATE TABLE updates (time INTEGER, repo TEXT, branch TEXT, cid TEXT, type TEXT)")
		for i := 0; i < 2*branches; i++ {
			mustExec(t, db, "INSERT INTO updates VALUES (?,?,?,?,?)",
				i, fmt.Sprintf("repo%d", i%branches/8), fmt.Sprintf("b%d", i%8), fmt.Sprintf("c%d", i), "update")
		}
		st, err := db.Prepare(gitTrimQueries[1])
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := st.ExecValues(nil)
		runtime.ReadMemStats(&after)
		if err != nil || n != branches {
			t.Fatalf("trim over %d branches removed %d rows, %v", branches, n, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := trimAlloc(512), trimAlloc(2048)
	t.Logf("trim DELETE allocates %d B at 512 retained rows, %d B at 2048 (%.1fx)", small, large, float64(large)/float64(small))
	if large > 6*small {
		t.Fatalf("4x the retained rows cost %.1fx the allocation (%d B -> %d B): IN is copying its set per row again",
			float64(large)/float64(small), small, large)
	}
}
