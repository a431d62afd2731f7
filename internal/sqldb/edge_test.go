package sqldb

import (
	"strings"
	"testing"
)

// Additional dialect edge cases beyond the core suite.

func TestOrderByNullsFirstAscLastDesc(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (2),(NULL),(1)")
	if got := flat(mustQuery(t, db, "SELECT v FROM t ORDER BY v")); got != "NULL;1;2" {
		t.Fatalf("asc: %q", got)
	}
	if got := flat(mustQuery(t, db, "SELECT v FROM t ORDER BY v DESC")); got != "2;1;NULL" {
		t.Fatalf("desc: %q", got)
	}
}

func TestHavingWithoutGroupBy(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1),(2),(3)")
	// HAVING over the implicit global group.
	if got := flat(mustQuery(t, db, "SELECT MAX(v) FROM t HAVING COUNT(*) > 2")); got != "3" {
		t.Fatalf("got %q", got)
	}
	if got := flat(mustQuery(t, db, "SELECT MAX(v) FROM t HAVING COUNT(*) > 5")); got != "" {
		t.Fatalf("got %q", got)
	}
}

// A join with a view on its right side probes a transient index over the
// view's rows. Joins are inner joins: LEFT must be refused, not read as an
// alias of the table before it — that would run, as an inner join, and
// silently drop the row an outer join exists to keep.
func TestLeftJoinWithView(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE users (id INTEGER, name TEXT)")
	mustExec(t, db, "CREATE TABLE orders (uid INTEGER, total INTEGER)")
	mustExec(t, db, "INSERT INTO users VALUES (1,'ann'),(2,'bob')")
	mustExec(t, db, "INSERT INTO orders VALUES (1,5),(1,7)")
	mustExec(t, db, "CREATE VIEW spend AS SELECT uid, MAX(total) AS amount FROM orders GROUP BY uid")
	refused(t, db, `SELECT users.name, s.amount FROM users
		LEFT JOIN spend s ON s.uid = users.id ORDER BY users.name`, "LEFT")
	got := flat(mustQuery(t, db, `SELECT u.name, s.amount FROM users u
		JOIN spend s ON s.uid = u.id ORDER BY u.name`))
	if got != "ann,7" {
		t.Fatalf("got %q", got)
	}
}

func TestNestedViews(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1),(2),(3),(4)")
	mustExec(t, db, "CREATE VIEW evens AS SELECT v FROM t WHERE v % 2 = 0")
	mustExec(t, db, "CREATE VIEW bigevens AS SELECT v FROM evens WHERE v > 2")
	if got := flat(mustQuery(t, db, "SELECT v FROM bigevens")); got != "4" {
		t.Fatalf("got %q", got)
	}
}

func TestSubqueryInSelectList(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (grp TEXT, v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES ('a',1),('a',3),('b',5)")
	got := flat(mustQuery(t, db, `SELECT grp, (SELECT MAX(v) FROM t i WHERE i.grp = o.grp)
		FROM t o WHERE v = 1`))
	if got != "a,3" {
		t.Fatalf("got %q", got)
	}
}

func TestAggregateOfExpression(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1,2),(3,4)")
	if got := flat(mustQuery(t, db, "SELECT MIN(a*b), MAX(a+b), COUNT(a-1) FROM t")); got != "2,7,2" {
		t.Fatalf("got %q", got)
	}
}

func TestGroupByExpression(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1),(2),(3),(4),(5)")
	got := flat(mustQuery(t, db, "SELECT v % 2, COUNT(*) FROM t GROUP BY v % 2 ORDER BY 1"))
	if got != "0,2;1,3" {
		t.Fatalf("got %q", got)
	}
}

func TestCrossJoinThreeTables(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (x INTEGER); CREATE TABLE b (y INTEGER); CREATE TABLE c (z INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (1),(2); INSERT INTO b VALUES (3); INSERT INTO c VALUES (4),(5)")
	res := mustQuery(t, db, "SELECT COUNT(*) FROM a JOIN b JOIN c")
	if res.Rows[0][0].Int64() != 4 {
		t.Fatalf("cross product = %v", res.Rows)
	}
}

func TestParenthesizedJoin(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (id INTEGER); CREATE TABLE b (id INTEGER); CREATE TABLE c (id INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (1); INSERT INTO b VALUES (1); INSERT INTO c VALUES (1)")
	// A FROM clause is a left-deep chain of joins; the nested form says
	// nothing an inner-join chain cannot.
	refused(t, db, `SELECT COUNT(*) FROM a JOIN (b JOIN c ON b.id = c.id) ON a.id = b.id`, `"("`)
	res := mustQuery(t, db, `SELECT COUNT(*) FROM a JOIN b ON a.id = b.id JOIN c ON b.id = c.id`)
	if res.Rows[0][0].Int64() != 1 {
		t.Fatalf("got %v", res.Rows)
	}
}

func TestSelfJoinAliases(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE emp (id INTEGER, boss INTEGER, name TEXT)")
	mustExec(t, db, "INSERT INTO emp VALUES (1,0,'ceo'),(2,1,'eng'),(3,1,'ops')")
	got := flat(mustQuery(t, db, `SELECT e.name, m.name FROM emp e
		JOIN emp m ON m.id = e.boss ORDER BY e.name`))
	if got != "eng,ceo;ops,ceo" {
		t.Fatalf("got %q", got)
	}
}

func TestAmbiguousColumnRejected(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (id INTEGER); CREATE TABLE b (id INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (1); INSERT INTO b VALUES (1)")
	_, err := db.Query("SELECT id FROM a JOIN b ON a.id = b.id")
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("err = %v, want ambiguous-column error", err)
	}
}

func TestUnaryMinusAndPrecedence(t *testing.T) {
	db := New()
	cases := []struct{ sql, want string }{
		{"SELECT -5", "-5"},
		{"SELECT -(2+3)", "-5"},
		{"SELECT 2+3*4", "14"},
		{"SELECT (2+3)*4", "20"},
		{"SELECT 10-2-3", "5"}, // left associative
		{"SELECT -9223372036854775807 - 1", "-9223372036854775808"},
		{"SELECT 1 < 2 AND 2 < 3", "1"},
		{"SELECT NOT 1 = 2", "1"},
	}
	for _, c := range cases {
		if got := flat(mustQuery(t, db, c.sql)); got != c.want {
			t.Errorf("%s = %q, want %q", c.sql, got, c.want)
		}
	}
}

// UPDATE is refused where a module's SQL is prepared (core.New), not at the
// first cycle that would run it.
func TestUpdateWithParams(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (k TEXT, v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES ('a',1),('b',2)")
	refused(t, db, "UPDATE t SET v = ? WHERE k = ?", "UPDATE", 42, "a")
	if _, err := db.PrepareScript("DELETE FROM t WHERE k = 'a'; UPDATE t SET v = 0"); err == nil {
		t.Fatal("PrepareScript accepted a script with an UPDATE in it")
	}
	if n := mustExec(t, db, "DELETE FROM t WHERE k = ? AND v < ?", "a", 42); n != 1 {
		t.Fatalf("deleted %d", n)
	}
}

func TestTablesAndColumnsIntrospection(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE one (a INTEGER, b TEXT)")
	mustExec(t, db, "CREATE TABLE two (c TEXT)")
	tables := db.Tables()
	if len(tables) != 2 {
		t.Fatalf("tables = %v", tables)
	}
	res := mustQuery(t, db, "SELECT * FROM one")
	if len(res.Columns) != 2 || res.Columns[0] != "a" || res.Columns[1] != "b" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if _, err := db.TableRowCount("missing"); err == nil {
		t.Fatal("missing table row count")
	}
	if _, err := db.TableRows("missing"); err == nil {
		t.Fatal("missing table rows")
	}
	rows, err := db.TableRows("one")
	if err != nil || len(rows) != 0 {
		t.Fatalf("rows = %v, %v", rows, err)
	}
}

func TestBetweenTextRange(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES ('apple'),('banana'),('cherry')")
	refused(t, db, "SELECT s FROM t WHERE s BETWEEN 'b' AND 'c'", "BETWEEN")
	if got := flat(mustQuery(t, db, "SELECT s FROM t WHERE s >= 'b' AND s <= 'c'")); got != "banana" {
		t.Fatalf("got %q", got)
	}
}

func TestValueAccessors(t *testing.T) {
	if Int(7).Int64() != 7 || Text(" 12").Int64() != 12 {
		t.Fatal("numeric conversions")
	}
	if Null().Int64() != 0 || Null().TextVal() != "" {
		t.Fatal("null accessors")
	}
	if Int(-3).TextVal() != "-3" || Text("x").TextVal() != "x" {
		t.Fatal("text rendering")
	}
	if KindNull.String() != "NULL" || KindInt.String() != "INTEGER" || KindText.String() != "TEXT" {
		t.Fatal("kind strings")
	}
}

func TestResultEmpty(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (v INTEGER)")
	res := mustQuery(t, db, "SELECT v FROM t")
	if !res.Empty() {
		t.Fatal("empty result not Empty")
	}
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	res = mustQuery(t, db, "SELECT v FROM t")
	if res.Empty() {
		t.Fatal("non-empty result Empty")
	}
}
