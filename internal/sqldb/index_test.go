package sqldb

import (
	"fmt"
	"testing"
)

// diffDBs builds the same database twice, once with hash indexes enabled and
// once with them disabled, runs every query against both, and requires
// identical results. The scan engine is the oracle: indexes are a pure
// planner optimisation and must never change what a query returns.
func diffDBs(t *testing.T, setup func(t *testing.T, db *DB), queries []string) {
	t.Helper()
	indexed, scan := New(), New()
	scan.SetIndexing(false)
	setup(t, indexed)
	setup(t, scan)
	for _, q := range queries {
		ri, ei := indexed.Query(q)
		rs, es := scan.Query(q)
		if (ei != nil) != (es != nil) {
			t.Fatalf("query %q: indexed err=%v scan err=%v", q, ei, es)
		}
		if ei != nil {
			continue
		}
		if flat(ri) != flat(rs) {
			t.Fatalf("query %q:\n  indexed: %q\n  scan:    %q", q, flat(ri), flat(rs))
		}
	}
}

func multiRepoGit(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, `
		CREATE TABLE updates (time INTEGER, repo TEXT, branch TEXT, cid TEXT, type TEXT);
		CREATE TABLE advertisements (time INTEGER, repo TEXT, branch TEXT, cid TEXT);
	`)
	mustExec(t, db, `CREATE VIEW branchcnt AS
		SELECT DISTINCT a.time,a.repo,COUNT(u.branch) AS cnt
		FROM advertisements a
		JOIN updates u ON u.time < a.time AND u.repo = a.repo
		WHERE u.type != 'delete' AND u.time = (SELECT MAX(time)
			FROM updates WHERE branch = u.branch
			AND repo = u.repo AND time < a.time) GROUP BY
			a.time,a.repo,a.branch`)
	clock := 0
	heads := map[string]string{}
	for round := 0; round < 6; round++ {
		for r := 0; r < 4; r++ {
			repo := fmt.Sprintf("repo%d", r)
			for b := 0; b < 3; b++ {
				branch := fmt.Sprintf("b%d", b)
				clock++
				cid := fmt.Sprintf("c%d", clock)
				typ := "update"
				if round == 4 && b == 2 {
					typ = "delete" // exercise the type != 'delete' filter
				} else {
					heads[repo+"/"+branch] = cid
				}
				mustExec(t, db, "INSERT INTO updates VALUES (?,?,?,?,?)",
					clock, repo, branch, cid, typ)
			}
		}
		// Advertise repo0's live heads; repo2 gets a rollback at round 3
		// so the soundness query has real violations to agree on.
		clock++
		for b := 0; b < 3; b++ {
			branch := fmt.Sprintf("b%d", b)
			if cid, ok := heads["repo0/"+branch]; ok {
				mustExec(t, db, "INSERT INTO advertisements VALUES (?,?,?,?)",
					clock, "repo0", branch, cid)
			}
		}
		if round == 3 {
			mustExec(t, db, "INSERT INTO advertisements VALUES (?,?,?,?)",
				clock, "repo2", "b0", "c1")
		}
	}
}

// TestIndexDifferentialGitCorpus runs the paper's own invariant queries —
// the worst SQL this engine sees in production — over a multi-repo history
// with indexing on and off.
func TestIndexDifferentialGitCorpus(t *testing.T) {
	diffDBs(t, func(t *testing.T, db *DB) { multiRepoGit(t, db) }, []string{
		gitSoundnessSQL,
		gitCompletenessSQL,
		"SELECT * FROM branchcnt ORDER BY time, repo",
		"SELECT COUNT(*) FROM updates WHERE repo = 'repo2'",
		"SELECT repo, COUNT(*) FROM updates GROUP BY repo ORDER BY repo",
		`SELECT u.time, a.time FROM updates u JOIN advertisements a
			ON u.repo = a.repo AND u.branch = a.branch
			ORDER BY u.time, a.time`,
		`SELECT time FROM updates WHERE time NOT IN
			(SELECT MAX(time) FROM updates GROUP BY repo, branch)
			ORDER BY time`,
	})
}

// TestIndexDifferentialEdgeValues covers the value classes where a hash
// probe could diverge from scan semantics: NULLs (= never matches NULL), an
// integer against text of the same digits (1 != '1'), and integers at the
// int64 limits.
func TestIndexDifferentialEdgeValues(t *testing.T) {
	setup := func(t *testing.T, db *DB) {
		mustExec(t, db, "CREATE TABLE v (k, tag TEXT)")
		mustExec(t, db, "INSERT INTO v VALUES (1, 'int1')")
		mustExec(t, db, "INSERT INTO v VALUES (NULL, 'null')")
		mustExec(t, db, "INSERT INTO v VALUES (1000000000000000000, 'bigint')")
		mustExec(t, db, "INSERT INTO v VALUES (9223372036854775807, 'max')")
		mustExec(t, db, "INSERT INTO v VALUES (-9223372036854775807 - 1, 'min')")
		mustExec(t, db, "INSERT INTO v VALUES ('1', 'text1')")
		mustExec(t, db, "CREATE TABLE probe (k, why TEXT)")
		mustExec(t, db, `INSERT INTO probe VALUES
			(1, 'i'), ('1', 't'), (NULL, 'n'), (1000000000000000000, 'b'), (9223372036854775807, 'm')`)
	}
	diffDBs(t, setup, []string{
		"SELECT tag FROM v WHERE k = 1 ORDER BY tag",
		"SELECT tag FROM v WHERE k = '1' ORDER BY tag",
		"SELECT tag FROM v WHERE k = 1000000000000000000 ORDER BY tag",
		"SELECT tag FROM v WHERE k = 9223372036854775807 ORDER BY tag",
		"SELECT tag FROM v WHERE k = -9223372036854775807 - 1 ORDER BY tag",
		"SELECT tag FROM v WHERE k = NULL ORDER BY tag",
		"SELECT tag FROM v WHERE k IS NULL ORDER BY tag",
		`SELECT v.tag, probe.why FROM v JOIN probe ON v.k = probe.k
			ORDER BY v.tag, probe.why`,
		`SELECT tag FROM v WHERE k IN (SELECT k FROM probe) ORDER BY tag`,
	})
}

// Equality probes with a NULL parameter must return no rows, in both modes.
func TestIndexNullParamProbe(t *testing.T) {
	for _, on := range []bool{true, false} {
		db := New()
		db.SetIndexing(on)
		mustExec(t, db, "CREATE TABLE t (a INTEGER)")
		mustExec(t, db, "INSERT INTO t VALUES (1), (NULL)")
		res, err := db.Query("SELECT a FROM t WHERE a = ?", nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Empty() {
			t.Fatalf("indexing=%v: a = NULL matched %q", on, flat(res))
		}
	}
}

// Index maintenance across the mutation matrix: the second query after each
// mutation must reflect the new table state, not a stale index.
func TestIndexMaintenance(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (k TEXT, n INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES ('a', 1), ('b', 2)")
	q := func(key string) string {
		res := mustQuery(t, db, "SELECT n FROM t WHERE k = ? ORDER BY n", key)
		return flat(res)
	}

	if got := q("a"); got != "1" { // builds the index
		t.Fatalf("initial probe = %q", got)
	}
	// Incremental append: new rows visible without a rebuild.
	mustExec(t, db, "INSERT INTO t VALUES ('a', 3)")
	if got := q("a"); got != "1;3" {
		t.Fatalf("after INSERT = %q", got)
	}
	// A key first seen after the index was built.
	mustExec(t, db, "INSERT INTO t VALUES ('z', 4)")
	if got := q("z"); got != "4" {
		t.Fatalf("after INSERT of a new key = %q", got)
	}
	// DELETE shifts the survivors' positions: every index is rebuilt.
	mustExec(t, db, "DELETE FROM t WHERE n = 1")
	if got := q("a"); got != "3" {
		t.Fatalf("after DELETE = %q", got)
	}
	if got := q("b"); got != "2" {
		t.Fatalf("after DELETE, a shifted row = %q", got)
	}
	mustExec(t, db, "DELETE FROM t WHERE k = 'a'")
	if got := q("a"); got != "" {
		t.Fatalf("after DELETE of the key = %q", got)
	}
	// Truncate then reinsert the same number of rows: a watermark-only
	// index would silently serve the old rows here.
	total, _ := db.TableRowCount("t")
	if err := db.RemoveLastRows("t", int(total)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO t VALUES ('a', 100), ('b', 200)")
	if got := q("a"); got != "100" {
		t.Fatalf("after truncate+reinsert = %q", got)
	}
	if got := q("z"); got != "" {
		t.Fatalf("stale key after truncate = %q", got)
	}
}

// Compound ORDER BY with mixed directions and ties, against precomputed
// sort keys.
func TestOrderByCompoundDirections(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b TEXT, c INTEGER)")
	mustExec(t, db, `INSERT INTO t VALUES
		(2, 'x', 15), (1, 'y', 5), (2, 'x', 5),
		(1, 'x', 25), (2, 'y', 15), (1, 'y', 15)`)
	res := mustQuery(t, db, "SELECT a, b, c FROM t ORDER BY a DESC, b, c DESC")
	want := "2,x,15;2,x,5;2,y,15;1,x,25;1,y,15;1,y,5"
	if flat(res) != want {
		t.Fatalf("ORDER BY = %q, want %q", flat(res), want)
	}
}
