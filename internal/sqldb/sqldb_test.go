package sqldb

import (
	"errors"
	"strings"
	"testing"
)

func mustExec(t *testing.T, db *DB, sql string, args ...any) int {
	t.Helper()
	n, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return n
}

func mustQuery(t *testing.T, db *DB, sql string, args ...any) *Result {
	t.Helper()
	res, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return res
}

// flat renders a result into a compact string for comparison.
func flat(res *Result) string {
	var sb strings.Builder
	for i, row := range res.Rows {
		if i > 0 {
			sb.WriteByte(';')
		}
		for j, v := range row {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(v.String())
		}
	}
	return sb.String()
}

func TestCreateInsertSelect(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b TEXT)")
	if n := mustExec(t, db, "INSERT INTO t VALUES (1, 'one'), (2, 'two')"); n != 2 {
		t.Fatalf("inserted %d, want 2", n)
	}
	res := mustQuery(t, db, "SELECT a, b FROM t")
	if got := flat(res); got != "1,one;2,two" {
		t.Fatalf("got %q", got)
	}
	if res.Columns[0] != "a" || res.Columns[1] != "b" {
		t.Fatalf("columns = %v", res.Columns)
	}
}

// An INSERT gives every column, in declaration order; a column list is
// outside the grammar, and the column it would have left out is spelled NULL.
func TestInsertColumnSubset(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b TEXT, c TEXT)")
	refused(t, db, "INSERT INTO t (b, a) VALUES ('x', 7)", `"("`)
	if _, err := db.Exec("INSERT INTO t VALUES (7, 'x')"); err == nil {
		t.Fatal("INSERT with fewer values than columns succeeded")
	}
	mustExec(t, db, "INSERT INTO t VALUES (7, 'x', NULL)")
	res := mustQuery(t, db, "SELECT a, b, c FROM t")
	if got := flat(res); got != "7,x,NULL" {
		t.Fatalf("got %q", got)
	}
}

func TestParamBinding(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (?, ?)", 42, "hello")
	res := mustQuery(t, db, "SELECT b FROM t WHERE a = ?", 42)
	if got := flat(res); got != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestMissingParam(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	if _, err := db.Exec("INSERT INTO t VALUES (?)"); err == nil {
		t.Fatal("expected error for missing parameter")
	}
}

func TestWhereOperators(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1),(2),(3),(4),(5)")
	cases := []struct{ sql, want string }{
		{"SELECT a FROM t WHERE a = 3", "3"},
		{"SELECT a FROM t WHERE a != 3", "1;2;4;5"},
		{"SELECT a FROM t WHERE a <> 3", "1;2;4;5"},
		{"SELECT a FROM t WHERE a < 3", "1;2"},
		{"SELECT a FROM t WHERE a <= 2", "1;2"},
		{"SELECT a FROM t WHERE a > 4", "5"},
		{"SELECT a FROM t WHERE a >= 4", "4;5"},
		{"SELECT a FROM t WHERE a >= 2 AND a <= 4", "2;3;4"},
		{"SELECT a FROM t WHERE NOT (a >= 2 AND a <= 4)", "1;5"},
		{"SELECT a FROM t WHERE a = 1 OR a = 5", "1;5"},
		{"SELECT a FROM t WHERE a > 1 AND a < 3", "2"},
		{"SELECT a FROM t WHERE NOT a = 2", "1;3;4;5"},
		{"SELECT a FROM t WHERE a % 2 = 0", "2;4"},
		{"SELECT a+10 FROM t WHERE a = 1", "11"},
		{"SELECT a*2 FROM t WHERE a = 3", "6"},
		{"SELECT a-1 FROM t WHERE a = 1", "0"},
		{"SELECT a/2 FROM t WHERE a = 5", "2"},
	}
	for _, c := range cases {
		if got := flat(mustQuery(t, db, c.sql)); got != c.want {
			t.Errorf("%s = %q, want %q", c.sql, got, c.want)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1),(NULL),(3)")
	mustExec(t, db, "CREATE TABLE s (m INTEGER, g INTEGER)") // IN sets, by g
	mustExec(t, db, "INSERT INTO s VALUES (1,1),(NULL,1),(9,2),(NULL,2)")
	cases := []struct{ sql, want string }{
		{"SELECT a FROM t WHERE a = NULL", ""},                               // NULL never equals
		{"SELECT a FROM t WHERE a != NULL", ""},                              // unknown filtered out
		{"SELECT a FROM t WHERE a IS NULL", "NULL"},                          //
		{"SELECT a FROM t WHERE a IS NOT NULL", "1;3"},                       //
		{"SELECT COUNT(*) FROM t", "3"},                                      // COUNT(*) counts NULLs
		{"SELECT COUNT(a) FROM t", "2"},                                      // COUNT(col) skips NULLs
		{"SELECT a+1 FROM t WHERE a IS NULL", "NULL"},                        // NULL propagates
		{"SELECT a FROM t WHERE a IN (SELECT m FROM s WHERE g = 1)", "1"},    // unknown for non-match
		{"SELECT a FROM t WHERE a NOT IN (SELECT m FROM s WHERE g = 2)", ""}, // all unknown
		{"SELECT a FROM t WHERE NOT (a = NULL)", ""},                         // NOT unknown = unknown
		{"SELECT MIN(a), MAX(a) FROM t", "1,3"},                              // aggregates skip NULLs
		{"SELECT MAX(a) FROM t WHERE a IS NULL", "NULL"},                     // and are NULL over none
		{"SELECT a FROM t WHERE a = 1 OR a = NULL", "1"},                     // true OR unknown
		{"SELECT a FROM t WHERE a = 1 AND a != NULL", ""},                    // true AND unknown
	}
	for _, c := range cases {
		if got := flat(mustQuery(t, db, c.sql)); got != c.want {
			t.Errorf("%s = %q, want %q", c.sql, got, c.want)
		}
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (3,'c'),(1,'a'),(2,'b'),(2,'z')")
	cases := []struct{ sql, want string }{
		{"SELECT a FROM t ORDER BY a", "1;2;2;3"},
		{"SELECT a FROM t ORDER BY a DESC", "3;2;2;1"},
		{"SELECT a, b FROM t ORDER BY a ASC, b DESC", "1,a;2,z;2,b;3,c"},
		{"SELECT a FROM t ORDER BY a LIMIT 2", "1;2"},
		{"SELECT a FROM t ORDER BY 1 DESC LIMIT 1", "3"},
		{"SELECT b FROM t ORDER BY b DESC LIMIT 1", "z"},
		{"SELECT a AS x FROM t ORDER BY x DESC LIMIT 1", "3"},
	}
	for _, c := range cases {
		if got := flat(mustQuery(t, db, c.sql)); got != c.want {
			t.Errorf("%s = %q, want %q", c.sql, got, c.want)
		}
	}
	// LIMIT cuts the head of the result; skipping rows is outside the grammar.
	refused(t, db, "SELECT a FROM t ORDER BY a LIMIT 2 OFFSET 1", "OFFSET")
	refused(t, db, "SELECT a FROM t ORDER BY a LIMIT 1, 2", `","`)
}

func TestGroupByHaving(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE sales (region TEXT, amount INTEGER)")
	mustExec(t, db, `INSERT INTO sales VALUES
		('north', 10), ('north', 20), ('south', 5), ('east', 7), ('east', 1)`)
	mustExec(t, db, "CREATE VIEW sales_regions AS SELECT DISTINCT region FROM sales")
	cases := []struct{ sql, want string }{
		{"SELECT region, MAX(amount) FROM sales GROUP BY region ORDER BY region", "east,7;north,20;south,5"},
		{"SELECT region, COUNT(*) FROM sales GROUP BY region HAVING COUNT(*) > 1 ORDER BY region", "east,2;north,2"},
		{"SELECT region FROM sales GROUP BY region HAVING MAX(amount) >= 7 ORDER BY region", "east;north"},
		{"SELECT COUNT(*) FROM sales_regions", "3"},
		{"SELECT MAX(amount) - MIN(amount) FROM sales", "19"},
		{"SELECT region, MIN(amount) FROM sales GROUP BY region HAVING MIN(amount) > 4 AND COUNT(amount) < 2 ORDER BY region", "south,5"},
	}
	for _, c := range cases {
		if got := flat(mustQuery(t, db, c.sql)); got != c.want {
			t.Errorf("%s = %q, want %q", c.sql, got, c.want)
		}
	}
}

func TestGlobalAggregateOverEmptyTable(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	if got := flat(mustQuery(t, db, "SELECT COUNT(*), MIN(a), MAX(a) FROM t")); got != "0,NULL,NULL" {
		t.Fatalf("got %q", got)
	}
	// But GROUP BY over an empty table yields no groups.
	if got := flat(mustQuery(t, db, "SELECT a, COUNT(*) FROM t GROUP BY a")); got != "" {
		t.Fatalf("got %q", got)
	}
}

func TestDistinct(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1,'x'),(1,'x'),(2,'y'),(1,'z')")
	if got := flat(mustQuery(t, db, "SELECT DISTINCT a, b FROM t ORDER BY a, b")); got != "1,x;1,z;2,y" {
		t.Fatalf("got %q", got)
	}
	if got := flat(mustQuery(t, db, "SELECT DISTINCT a FROM t ORDER BY a")); got != "1;2" {
		t.Fatalf("got %q", got)
	}
}

func TestJoins(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE users (id INTEGER, name TEXT)")
	mustExec(t, db, "CREATE TABLE orders (uid INTEGER, item TEXT)")
	mustExec(t, db, "INSERT INTO users VALUES (1,'ann'),(2,'bob'),(3,'carol')")
	mustExec(t, db, "INSERT INTO orders VALUES (1,'pen'),(1,'ink'),(3,'hat')")
	cases := []struct{ sql, want string }{
		{"SELECT u.name, o.item FROM users u JOIN orders o ON o.uid = u.id ORDER BY u.name, o.item",
			"ann,ink;ann,pen;carol,hat"},
		{"SELECT u.name, o.item FROM users AS u JOIN orders AS o ON o.uid = u.id ORDER BY u.name, o.item",
			"ann,ink;ann,pen;carol,hat"},
		{"SELECT COUNT(*) FROM users JOIN orders", "9"}, // no ON: the cross product
		{"SELECT u.name FROM users u JOIN orders o ON o.uid = u.id AND o.item = 'hat'", "carol"},
		// Users with no order, which an outer join would have null-extended.
		{"SELECT name FROM users WHERE id NOT IN (SELECT uid FROM orders)", "bob"},
	}
	for _, c := range cases {
		if got := flat(mustQuery(t, db, c.sql)); got != c.want {
			t.Errorf("%s = %q, want %q", c.sql, got, c.want)
		}
	}
}

func TestNaturalJoin(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (id INTEGER, x TEXT)")
	mustExec(t, db, "CREATE TABLE b (id INTEGER, y TEXT)")
	mustExec(t, db, "INSERT INTO a VALUES (1,'x1'),(2,'x2')")
	mustExec(t, db, "INSERT INTO b VALUES (1,'y1'),(1,'y1b'),(3,'y3')")
	res := mustQuery(t, db, "SELECT id, x, y FROM a NATURAL JOIN b ORDER BY y")
	if got := flat(res); got != "1,x1,y1;1,x1,y1b" {
		t.Fatalf("got %q", got)
	}
	// The shared column appears only once.
	res = mustQuery(t, db, "SELECT * FROM a NATURAL JOIN b ORDER BY y")
	if len(res.Columns) != 3 {
		t.Fatalf("columns = %v, want 3 (id deduplicated)", res.Columns)
	}
}

func TestSubqueries(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (grp TEXT, v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES ('a',1),('a',5),('b',2),('b',8)")
	cases := []struct{ sql, want string }{
		// Scalar subquery.
		{"SELECT (SELECT MAX(v) FROM t)", "8"},
		// Correlated scalar subquery.
		{"SELECT grp, v FROM t o WHERE v = (SELECT MAX(v) FROM t i WHERE i.grp = o.grp) ORDER BY grp",
			"a,5;b,8"},
		// IN subquery.
		{"SELECT v FROM t WHERE grp IN (SELECT grp FROM t WHERE v > 7) ORDER BY v", "2;8"},
		// NOT IN with GROUP BY subquery (the Git trimming pattern).
		{"SELECT v FROM t WHERE v NOT IN (SELECT MAX(v) FROM t GROUP BY grp) ORDER BY v", "1;2"},
		// EXISTS / NOT EXISTS, correlated.
		{"SELECT DISTINCT grp FROM t o WHERE EXISTS (SELECT 1 FROM t i WHERE i.grp = o.grp AND i.v > 7)", "b"},
		{"SELECT DISTINCT grp FROM t o WHERE NOT EXISTS (SELECT 1 FROM t i WHERE i.grp = o.grp AND i.v > 7)", "a"},
		// Scalar subquery yielding no row is NULL.
		{"SELECT v FROM t WHERE v = (SELECT v FROM t WHERE v > 100)", ""},
		// Correlated subquery with ORDER BY ... LIMIT (Git soundness pattern).
		{"SELECT grp FROM t o WHERE v != (SELECT i.v FROM t i WHERE i.grp = o.grp ORDER BY i.v DESC LIMIT 1) ORDER BY grp",
			"a;b"},
	}
	for _, c := range cases {
		if got := flat(mustQuery(t, db, c.sql)); got != c.want {
			t.Errorf("%s = %q, want %q", c.sql, got, c.want)
		}
	}
}

func TestViews(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (grp TEXT, v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES ('a',1),('a',5),('b',2)")
	mustExec(t, db, "CREATE VIEW sums AS SELECT grp, MAX(v) AS total FROM t GROUP BY grp")
	if got := flat(mustQuery(t, db, "SELECT grp, total FROM sums ORDER BY grp")); got != "a,5;b,2" {
		t.Fatalf("got %q", got)
	}
	// Views reflect base-table changes.
	mustExec(t, db, "INSERT INTO t VALUES ('b',10)")
	if got := flat(mustQuery(t, db, "SELECT total FROM sums WHERE grp = 'b'")); got != "10" {
		t.Fatalf("got %q", got)
	}
	// Views can be joined and aliased.
	if got := flat(mustQuery(t, db, "SELECT s.total FROM sums s WHERE s.grp = 'a'")); got != "5" {
		t.Fatalf("got %q", got)
	}
	if got := flat(mustQuery(t, db, "SELECT t.v FROM t JOIN sums s ON s.grp = t.grp AND s.total = t.v ORDER BY t.v")); got != "5;10" {
		t.Fatalf("got %q", got)
	}
	// A view names only what exists, so views cannot form a cycle; and a name
	// is taken once, by a table or a view.
	if _, err := db.Exec("CREATE VIEW loop AS SELECT * FROM loop"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("self-referencing view: %v, want ErrNoSuchTable", err)
	}
	if _, err := db.Exec("CREATE VIEW deep AS SELECT 1 FROM t JOIN sums ON EXISTS (SELECT 1 FROM deep)"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("view naming itself in an ON subquery: %v, want ErrNoSuchTable", err)
	}
	for _, sql := range []string{"CREATE VIEW sums AS SELECT 1", "CREATE VIEW t AS SELECT 1", "CREATE TABLE sums (a INTEGER)"} {
		if _, err := db.Exec(sql); !errors.Is(err, ErrTableExists) {
			t.Fatalf("%s: %v, want ErrTableExists", sql, err)
		}
	}
}

// Rows are written once and deleted: the audit log never changes a tuple it
// has recorded, so the engine has no statement that could.
func TestUpdateDelete(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1,'x'),(2,'y'),(3,'z')")
	refused(t, db, "UPDATE t SET b = 'q' WHERE a >= 2", "UPDATE")
	refused(t, db, "UPDATE t SET a = a + 10", "UPDATE")
	if n := mustExec(t, db, "DELETE FROM t WHERE a = 2"); n != 1 {
		t.Fatalf("deleted %d, want 1", n)
	}
	if got := flat(mustQuery(t, db, "SELECT a, b FROM t")); got != "1,x;3,z" {
		t.Fatalf("got %q", got)
	}
	if n := mustExec(t, db, "DELETE FROM t"); n != 2 {
		t.Fatalf("deleted %d, want 2", n)
	}
	if got, _ := db.TableRowCount("t"); got != 0 {
		t.Fatalf("rows = %d, want 0", got)
	}
}

func TestDeleteWithSubquerySeesSnapshot(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE u (repo TEXT, branch TEXT, time INTEGER)")
	mustExec(t, db, `INSERT INTO u VALUES
		('r','main',1),('r','main',2),('r','dev',1),('r','dev',3),('s','main',5)`)
	// The Git trimming query: keep only the most recent update per branch.
	n := mustExec(t, db, `DELETE FROM u WHERE time NOT IN
		(SELECT MAX(time) FROM u GROUP BY repo, branch)`)
	if n != 2 {
		t.Fatalf("deleted %d, want 2", n)
	}
	got := flat(mustQuery(t, db, "SELECT repo, branch, time FROM u ORDER BY repo, branch"))
	if got != "r,dev,3;r,main,2;s,main,5" {
		t.Fatalf("got %q", got)
	}
}

// Set operators between SELECTs are outside the grammar; intersection and
// difference are written with IN and NOT IN over a subquery.
func TestCompoundSelects(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (v INTEGER)")
	mustExec(t, db, "CREATE TABLE b (v INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (1),(2),(3)")
	mustExec(t, db, "INSERT INTO b VALUES (2),(3),(4)")
	for _, op := range []string{"UNION", "UNION ALL", "EXCEPT", "INTERSECT"} {
		refused(t, db, "SELECT v FROM a "+op+" SELECT v FROM b ORDER BY v", strings.Fields(op)[0])
	}
	cases := []struct{ sql, want string }{
		{"SELECT v FROM a WHERE v NOT IN (SELECT v FROM b)", "1"},
		{"SELECT v FROM a WHERE v IN (SELECT v FROM b) ORDER BY v DESC LIMIT 1", "3"},
	}
	for _, c := range cases {
		if got := flat(mustQuery(t, db, c.sql)); got != c.want {
			t.Errorf("%s = %q, want %q", c.sql, got, c.want)
		}
	}
}

// Pattern matching is outside the grammar, as a literal and as a parameter.
func TestLike(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES ('hello'),('help'),('world'),('HELLO')")
	refused(t, db, "SELECT s FROM t WHERE s LIKE 'hel%' ORDER BY s", "LIKE")
	refused(t, db, "SELECT s FROM t WHERE s NOT LIKE 'hel%'", "LIKE")
	refused(t, db, "SELECT s FROM t WHERE s LIKE ?", "LIKE", "hel_")
	refused(t, db, "DELETE FROM t WHERE s LIKE '%'", "LIKE")
}

// CAST is outside the grammar; a value changes kind only by the affinity of
// the column it is stored into (TestTypeAffinity).
func TestCast(t *testing.T) {
	db := New()
	refused(t, db, "SELECT CAST('42' AS INTEGER), CAST(3 AS TEXT), CAST(5 AS REAL)", "CAST")
	refused(t, db, "SELECT CAST(5 AS REAL)", "CAST")
}

// The grammar's only functions are the aggregates COUNT, MIN and MAX. Any
// other call is refused where it is parsed, by name — not evaluated to an
// "unknown function" error on the first row that reaches it.
func TestStringFunctions(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (s TEXT)") // no rows: the refusal is the parser's
	for _, fn := range []string{"LENGTH", "UPPER", "LOWER", "SUBSTR", "ABS", "NULLIF", "IFNULL", "COALESCE", "SUM", "AVG", "TOTAL", "GROUP_CONCAT", "MIN2"} {
		refused(t, db, "SELECT "+fn+"(s) FROM t", `"`+fn+`"`)
	}
	refused(t, db, "SELECT 'a' || 'b' || 'c'", "'|'")
	if _, err := db.Exec("SELECT max(s), Count(*), MIN(s) FROM t"); err != nil {
		t.Fatalf("aggregate names are case-insensitive: %v", err)
	}
}

func TestTypeAffinity(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (i INTEGER, s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES ('7', 42)")
	res := mustQuery(t, db, "SELECT i, s FROM t")
	row := res.Rows[0]
	if row[0].Kind() != KindInt || row[0].Int64() != 7 {
		t.Errorf("i = %v (%v), want INTEGER 7", row[0], row[0].Kind())
	}
	if row[1].Kind() != KindText || row[1].TextVal() != "42" {
		t.Errorf("s = %v (%v), want TEXT '42'", row[1], row[1].Kind())
	}
}

func TestErrorCases(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	for _, sql := range []string{
		"SELECT * FROM missing",
		"SELECT nope FROM t",
		"INSERT INTO missing VALUES (1)",
		"INSERT INTO t (nope) VALUES (1)",
		"DELETE FROM missing",
		"UPDATE missing SET a = 1",
		"SELECT a FROM t ORDER BY 9",
		"SELECT",
		"CREATE TABLE t (a INTEGER)", // duplicate
		"SELECT a FROM t WHERE",
		"SELECT MAX(a, a) FROM t",
		"SELECT a FROM t GROUP BY",
	} {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("Exec(%q) succeeded, want error", sql)
		}
	}
	if _, err := db.Query("INSERT INTO t VALUES (1)"); err == nil {
		t.Error("Query with non-SELECT succeeded")
	}
}

// A schema is created once, by the module that owns it: a second CREATE of a
// name is an error rather than a no-op, and nothing is ever dropped.
func TestCreateIfNotExistsAndDropIfExists(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	refused(t, db, "CREATE TABLE IF NOT EXISTS t (a INTEGER)", "IF")
	refused(t, db, "CREATE VIEW IF NOT EXISTS w AS SELECT a FROM t", "IF")
	refused(t, db, "DROP TABLE IF EXISTS missing", "DROP")
	refused(t, db, "DROP TABLE t", "DROP")
	if _, err := db.Exec("CREATE TABLE t (a INTEGER)"); !errors.Is(err, ErrTableExists) {
		t.Fatalf("err = %v, want ErrTableExists", err)
	}
	if got := flat(mustQuery(t, db, "SELECT a FROM t")); got != "1" {
		t.Fatalf("table after the refused statements = %q", got)
	}
}

func TestPreparedStatements(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b TEXT)")
	ins, err := db.Prepare("INSERT INTO t VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := ins.ExecValues([]Value{Int(int64(i)), Text("row")}); err != nil {
			t.Fatal(err)
		}
	}
	q, err := db.Prepare("SELECT COUNT(*) FROM t WHERE a < ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Snapshot().QueryStmt(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int64(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
}

func TestMultiStatementScript(t *testing.T) {
	db := New()
	n := mustExec(t, db, `
		CREATE TABLE t (a INTEGER);
		INSERT INTO t VALUES (1);
		INSERT INTO t VALUES (2), (3);
	`)
	if n != 3 {
		t.Fatalf("affected = %d, want 3", n)
	}
}

func TestQuotedIdentifiersAndComments(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE "order" (a INTEGER) -- trailing comment`)
	mustExec(t, db, "INSERT INTO `order` VALUES (1) /* block comment */")
	if got := flat(mustQuery(t, db, `SELECT a FROM "order"`)); got != "1" {
		t.Fatalf("got %q", got)
	}
}

func TestStringEscapes(t *testing.T) {
	db := New()
	if got := flat(mustQuery(t, db, "SELECT 'it''s'")); got != "it's" {
		t.Fatalf("got %q", got)
	}
}

func TestInsertFromSelect(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE src (a INTEGER)")
	mustExec(t, db, "CREATE TABLE dst (a INTEGER)")
	mustExec(t, db, "INSERT INTO src VALUES (1),(2),(3)")
	// Rows enter a table as VALUES only (audit's prepared INSERT); a value
	// may still be computed from other tables.
	refused(t, db, "INSERT INTO dst SELECT a FROM src WHERE a > 1", `"SELECT"`)
	refused(t, db, "INSERT INTO src SELECT a + 10 FROM src", `"SELECT"`)
	if n := mustExec(t, db, "INSERT INTO dst VALUES ((SELECT MAX(a) FROM src)), ((SELECT MIN(a) FROM src))"); n != 2 {
		t.Fatalf("inserted %d, want 2", n)
	}
	if got := flat(mustQuery(t, db, "SELECT a FROM dst ORDER BY a")); got != "1;3" {
		t.Fatalf("got %q", got)
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := New()
	if got := flat(mustQuery(t, db, "SELECT 1+1, 'x'")); got != "2,x" {
		t.Fatalf("got %q", got)
	}
}
