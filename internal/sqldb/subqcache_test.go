package sqldb

import (
	"fmt"
	"math/rand"
	"testing"
)

// buildRandomAuditDB creates a Git-schema database with random rows.
func buildRandomAuditDB(t *testing.T, r *rand.Rand, rows int) *DB {
	t.Helper()
	db := New()
	if _, err := db.Exec(`
		CREATE TABLE updates (time INTEGER, repo TEXT, branch TEXT, cid TEXT, type TEXT);
		CREATE TABLE advertisements (time INTEGER, repo TEXT, branch TEXT, cid TEXT);
	`); err != nil {
		t.Fatal(err)
	}
	repos := []string{"r1", "r2"}
	branches := []string{"main", "dev", "feat"}
	types := []string{"update", "create", "delete"}
	for i := 0; i < rows; i++ {
		repo := repos[r.Intn(len(repos))]
		branch := branches[r.Intn(len(branches))]
		cid := fmt.Sprintf("c%d", r.Intn(8))
		if r.Intn(4) == 0 {
			if _, err := db.Exec("INSERT INTO advertisements VALUES (?,?,?,?)",
				i, repo, branch, cid); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := db.Exec("INSERT INTO updates VALUES (?,?,?,?,?)",
				i, repo, branch, cid, types[r.Intn(len(types))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// queryWithCacheMode runs a SELECT with the subquery cache enabled or
// disabled (white-box).
func queryWithCacheMode(t *testing.T, db *DB, sql string, nocache bool) *Result {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		t.Fatalf("not a select: %q", sql)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	ev := db.evaluator(nil)
	ev.nocache = nocache
	res, err := ev.execSelect(sel, nil)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return res
}

// TestSubqueryCacheEquivalence checks, over many random databases, that the
// correlated-subquery cache never changes query results.
func TestSubqueryCacheEquivalence(t *testing.T) {
	queries := []string{
		// Correlated scalar subquery with ORDER BY/LIMIT (Git soundness).
		`SELECT * FROM advertisements a WHERE cid != (
			SELECT u.cid FROM updates u WHERE u.repo = a.repo AND
			u.branch = a.branch AND u.time < a.time ORDER BY u.time DESC LIMIT 1)`,
		// Correlated MAX subquery inside a join condition context.
		`SELECT a.time, a.repo FROM advertisements a JOIN updates u
			ON u.repo = a.repo AND u.time < a.time
			WHERE u.time = (SELECT MAX(time) FROM updates
				WHERE branch = u.branch AND repo = u.repo AND time < a.time)
			ORDER BY a.time, a.repo`,
		// Uncorrelated IN subquery.
		`SELECT time FROM updates WHERE time NOT IN
			(SELECT MAX(time) FROM updates GROUP BY repo, branch) ORDER BY time`,
		// EXISTS with correlation.
		`SELECT DISTINCT repo FROM updates o WHERE EXISTS
			(SELECT 1 FROM advertisements i WHERE i.repo = o.repo) ORDER BY repo`,
		// Correlated only through a join's ON inside the subquery.
		`SELECT time FROM advertisements a WHERE EXISTS (
			SELECT 1 FROM updates u JOIN updates w ON w.branch = u.branch AND w.time = a.time - 1)
			ORDER BY time`,
		// Nested correlation two levels deep.
		`SELECT time FROM advertisements a WHERE EXISTS (
			SELECT 1 FROM updates u WHERE u.repo = a.repo AND u.cid = (
				SELECT MAX(cid) FROM updates WHERE branch = u.branch))
			ORDER BY time`,
	}
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := buildRandomAuditDB(t, r, 60)
		for _, q := range queries {
			cached := queryWithCacheMode(t, db, q, false)
			plain := queryWithCacheMode(t, db, q, true)
			if flat(cached) != flat(plain) {
				t.Fatalf("seed %d query %q:\ncached: %s\nplain:  %s",
					seed, q, flat(cached), flat(plain))
			}
		}
	}
}

func TestSubqueryCacheHitCount(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db := buildRandomAuditDB(t, r, 120)
	st, _ := Parse(`SELECT a.time FROM advertisements a JOIN updates u
		ON u.repo = a.repo AND u.time < a.time
		WHERE u.time = (SELECT MAX(time) FROM updates
			WHERE branch = u.branch AND repo = u.repo AND time < a.time)`)
	sel := st.(*SelectStmt)
	db.mu.RLock()
	defer db.mu.RUnlock()
	ev := db.evaluator(nil)
	if _, err := ev.execSelect(sel, nil); err != nil {
		t.Fatal(err)
	}
	// The cache must have been exercised and hold far fewer entries than
	// the number of (a,u) pairs it was consulted for.
	if len(ev.subq) == 0 {
		t.Fatal("no subquery cache entries created")
	}
	for _, info := range ev.subq {
		if info.uncachable {
			t.Fatal("paper query classified uncachable")
		}
		if len(info.free) == 0 {
			t.Fatal("correlated subquery detected no free variables")
		}
	}
}

func TestFreeVarAnalysis(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
	mustExec(t, db, "CREATE TABLE u (c INTEGER, d INTEGER)")
	cases := []struct {
		sub      string
		wantFree int
	}{
		{"SELECT MAX(c) FROM u", 0},                                       // self-contained
		{"SELECT MAX(c) FROM u WHERE d = t.a", 1},                         // one free var
		{"SELECT MAX(c) FROM u WHERE d = t.a + t.b", 2},                   // two
		{"SELECT c FROM u WHERE d IN (SELECT b FROM t WHERE a = u.c)", 0}, // inner binds everything
		{"SELECT 1 FROM u JOIN u v ON v.c = t.a", 1},                      // free in a join's ON
		{"SELECT 1 FROM u JOIN u v ON v.c = u.d AND EXISTS (SELECT 1 FROM u w WHERE w.c = t.b)", 1},
	}
	for _, c := range cases {
		st, err := Parse(c.sub)
		if err != nil {
			t.Fatalf("%q: %v", c.sub, err)
		}
		db.mu.RLock()
		ev := db.evaluator(nil)
		free, err := ev.freeVars(st.(*SelectStmt), nil)
		db.mu.RUnlock()
		if err != nil {
			t.Fatalf("%q: %v", c.sub, err)
		}
		seen := map[freeRef]bool{}
		uniq := 0
		for _, f := range free {
			if !seen[f] {
				seen[f] = true
				uniq++
			}
		}
		if uniq != c.wantFree {
			t.Errorf("%q: free vars = %v, want %d", c.sub, free, c.wantFree)
		}
	}
}
