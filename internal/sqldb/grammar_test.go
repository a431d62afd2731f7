package sqldb

import (
	"sort"
	"strings"
	"testing"
)

// dump renders every table of db, in name order, so a test can require that
// a refused statement changed nothing.
func dump(t testing.TB, db *DB) string {
	t.Helper()
	names := db.Tables()
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		rows, err := db.TableRows(name)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(name + ":" + flat(&Result{Rows: rows}) + "\n")
	}
	return sb.String()
}

// refused requires that a statement outside the grammar is turned away the
// same way on every path in — Prepare, Exec, Query — with an error naming
// what was wrong with it, and that no table changed.
func refused(t *testing.T, db *DB, sql, names string, args ...any) {
	t.Helper()
	before := dump(t, db)
	_, perr := db.Prepare(sql)
	_, eerr := db.Exec(sql, args...)
	_, qerr := db.Query(sql, args...)
	for path, err := range map[string]error{"Prepare": perr, "Exec": eerr, "Query": qerr} {
		if err == nil {
			t.Errorf("%s(%q) succeeded, want it refused", path, sql)
		} else if !strings.Contains(err.Error(), names) {
			t.Errorf("%s(%q) = %v, want an error naming %q", path, sql, err, names)
		}
	}
	if after := dump(t, db); after != before {
		t.Errorf("%q was refused but changed the tables:\n%s->\n%s", sql, before, after)
	}
}

// grammarDB is the small fixed database the refusal table and the fuzz
// target run against: the Git audit schema with a short history, and two
// plain tables and a view beside it.
func grammarDB(t testing.TB) *DB {
	t.Helper()
	db := New()
	for _, sql := range []string{
		gitAuditSchema,
		"INSERT INTO updates VALUES (1,'r','main','c1','create'),(2,'r','main','c2','update'),(3,'r','dev','d1','create')",
		"INSERT INTO advertisements VALUES (4,'r','main','c2'),(4,'r','dev','d1'),(5,'r','main','c1')",
		"CREATE TABLE t (a INTEGER, b TEXT)",
		"CREATE TABLE u (a INTEGER, c INTEGER)",
		"CREATE VIEW v AS SELECT a, COUNT(*) AS n FROM t GROUP BY a",
		"INSERT INTO t VALUES (1,'x'),(2,'y'),(2,NULL)",
		"INSERT INTO u VALUES (2,5),(3,15)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("Exec(%q): %v", sql, err)
		}
	}
	return db
}

// outsideGrammar has one statement for every construct DESIGN.md §15 lists
// as cut, with the text its refusal must carry: the reserved word, or the
// token the parser stopped at.
var outsideGrammar = []struct{ construct, sql, names string }{
	{"UPDATE", "UPDATE t SET b = 'z' WHERE a = 1", "UPDATE"},
	{"DROP TABLE", "DROP TABLE t", "DROP"},
	{"DROP VIEW", "DROP VIEW v", "DROP"},
	{"CASE", "SELECT CASE WHEN a = 1 THEN 'one' ELSE 'many' END FROM t", "CASE"},
	{"CASE operand", "DELETE FROM t WHERE CASE a WHEN 1 THEN 1 END", "CASE"},
	{"CAST", "SELECT CAST(b AS INTEGER) FROM t", "CAST"},
	{"LIKE", "SELECT a FROM t WHERE b LIKE 'x%'", "LIKE"},
	{"BETWEEN", "SELECT a FROM t WHERE a BETWEEN 1 AND 2", "BETWEEN"},
	{"UNION", "SELECT a FROM t UNION SELECT a FROM u", "UNION"},
	{"UNION ALL", "SELECT a FROM t UNION ALL SELECT a FROM u", "UNION"},
	{"EXCEPT", "SELECT a FROM t EXCEPT SELECT a FROM u", "EXCEPT"},
	{"INTERSECT", "SELECT a FROM t INTERSECT SELECT a FROM u", "INTERSECT"},
	{"SELECT ALL", "SELECT ALL a FROM t", "ALL"},
	{"literal-list IN", "SELECT a FROM t WHERE a IN (1, 2)", "IN takes a subquery"},
	{"FROM subquery", "SELECT n FROM (SELECT COUNT(*) AS n FROM t) s", `"("`},
	{"LEFT JOIN", "SELECT t.a FROM t LEFT JOIN u ON u.a = t.a", "LEFT"},
	{"LEFT OUTER JOIN", "SELECT t.a FROM t LEFT OUTER JOIN u ON u.a = t.a", "LEFT"},
	{"CROSS JOIN", "SELECT COUNT(*) FROM t CROSS JOIN u", "CROSS"},
	{"INNER JOIN", "SELECT t.a FROM t INNER JOIN u ON u.a = t.a", "INNER"},
	{"comma join", "SELECT COUNT(*) FROM t, u", `","`},
	{"parenthesised join", "SELECT COUNT(*) FROM t JOIN (u JOIN v ON u.a = v.a) ON t.a = u.a", `"("`},
	{"OFFSET", "SELECT a FROM t ORDER BY a LIMIT 1 OFFSET 1", "OFFSET"},
	{"LIMIT offset, n", "SELECT a FROM t ORDER BY a LIMIT 1, 2", `","`},
	{"t.*", "SELECT t.* FROM t JOIN u ON u.a = t.a", `"*"`},
	{"INSERT column list", "INSERT INTO t (b, a) VALUES ('z', 9)", `"("`},
	{"INSERT ... SELECT", "INSERT INTO t SELECT a, 'z' FROM u", `"SELECT"`},
	{"IF NOT EXISTS", "CREATE TABLE IF NOT EXISTS t (a INTEGER)", "IF"},
	{"IF EXISTS", "DROP TABLE IF EXISTS t", "DROP"},
	{"PRIMARY KEY", "CREATE TABLE w (a INTEGER PRIMARY KEY)", "PRIMARY"},
	{"UNIQUE", "CREATE TABLE w (a INTEGER UNIQUE)", "UNIQUE"},
	{"NOT NULL", "CREATE TABLE w (a INTEGER NOT NULL)", `"NOT"`},
	{"DEFAULT", "CREATE TABLE w (a INTEGER DEFAULT 0)", "DEFAULT"},
	{"COUNT(DISTINCT)", "SELECT COUNT(DISTINCT a) FROM t", "DISTINCT"},
	{"SUM", "SELECT SUM(a) FROM t", `"SUM"`},
	{"AVG", "SELECT AVG(a) FROM t", `"AVG"`},
	{"TOTAL", "SELECT TOTAL(a) FROM t", `"TOTAL"`},
	{"GROUP_CONCAT", "SELECT GROUP_CONCAT(b) FROM t", `"GROUP_CONCAT"`},
	{"scalar function", "SELECT LENGTH(b) FROM t", `"LENGTH"`},
	{"COALESCE", "SELECT COALESCE(b, '-') FROM t", `"COALESCE"`},
	{"||", "SELECT b || '!' FROM t", `'|'`},
	{"unary +", "SELECT +a FROM t", `"+"`},
	{"transaction control", "BEGIN", "BEGIN"},
	{"REAL column", "CREATE TABLE w (a REAL)", "REAL"},
	{"BLOB column", "CREATE TABLE w (a BLOB)", "BLOB"},
	{"REAL literal", "SELECT a FROM t WHERE a < 1.5", `"1.5"`},
	{"exponent literal", "INSERT INTO t VALUES (1e3, 'z')", `"1e3"`},
	{"integer past int64", "SELECT a FROM t WHERE a = 9223372036854775808", `"9223372036854775808"`},
}

// TestOutsideGrammarRejected: the engine's input is a contract (DESIGN.md
// §15), and SQL reaches it from outside (Log.Query, a module's Open). What
// the contract leaves out is refused by name — never run as something else,
// never a panic — and a script with one such statement in it runs none of
// its statements.
func TestOutsideGrammarRejected(t *testing.T) {
	db := grammarDB(t)
	for _, c := range outsideGrammar {
		t.Run(c.construct, func(t *testing.T) { refused(t, db, c.sql, c.names) })
	}

	before := dump(t, db)
	for _, c := range outsideGrammar {
		script := "INSERT INTO t VALUES (9,'first'); " + c.sql + "; DELETE FROM u"
		if _, err := db.Exec(script); err == nil {
			t.Errorf("script with %s in the middle succeeded", c.construct)
		}
		if _, err := db.PrepareScript(script); err == nil {
			t.Errorf("PrepareScript with %s in the middle succeeded", c.construct)
		}
	}
	if after := dump(t, db); after != before {
		t.Fatalf("refused scripts ran some of their statements:\n%s->\n%s", before, after)
	}

	// A quoted identifier may spell a reserved word: it is a name, not a use.
	mustExec(t, db, `CREATE TABLE "left" ("offset" INTEGER)`)
	mustExec(t, db, `INSERT INTO "left" VALUES (5)`)
	if got := flat(mustQuery(t, db, `SELECT "offset" FROM "left"`)); got != "5" {
		t.Fatalf("quoted reserved words: got %q", got)
	}
}

// FuzzParseExec runs arbitrary bytes as a script against the fixed database.
// Whatever they are, the engine must not panic, and a script it refuses to
// parse must leave every table as it was.
func FuzzParseExec(f *testing.F) {
	for _, c := range outsideGrammar {
		f.Add(c.sql)
	}
	for _, sql := range []string{gitAuditSchema, gitSoundnessSQL, gitCompletenessSQL, gitTrimSQL} {
		f.Add(sql)
	}
	f.Add("INSERT INTO t VALUES (?, 'p'); DELETE FROM t WHERE a NOT IN (SELECT MAX(a) FROM u)")
	f.Add("SELECT t.a, n FROM t NATURAL JOIN v JOIN u ON u.a = t.a WHERE c < 1 ORDER BY 1 DESC LIMIT 2")
	f.Add("CREATE VIEW w AS SELECT * FROM w")
	f.Fuzz(func(t *testing.T, script string) {
		// Joins and subqueries multiply work by the row count per level;
		// keep a mutated script from nesting its way to hours.
		up := strings.ToUpper(script)
		if len(script) > 512 || strings.Count(up, "JOIN")+strings.Count(up, "SELECT") > 6 {
			t.Skip()
		}
		db := grammarDB(t)
		before := dump(t, db)
		_, err := db.Exec(script, 7)
		if err != nil && strings.Contains(err.Error(), "parse error") && dump(t, db) != before {
			t.Fatalf("%q: %v, yet the tables changed", script, err)
		}
	})
}
