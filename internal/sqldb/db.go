package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Common errors.
var (
	ErrNoSuchTable  = errors.New("sqldb: no such table")
	ErrTableExists  = errors.New("sqldb: table already exists")
	ErrNoSuchColumn = errors.New("sqldb: no such column")
)

// Table holds rows in insertion order.
//
// Row slices are immutable once stored, and no statement stores into the
// outer Rows array below its length: INSERT appends, DELETE installs a fresh
// array. shared is set when a snapshot captures this table's row header (see
// snapshot.go); RemoveLastRows consults it so that a later append cannot
// overwrite rows the snapshot still reads.
type Table struct {
	Name string
	Cols []ColumnDef
	Rows [][]Value

	idx    *tableIndexes // lazy hash indexes; nil for hand-built tables
	shared bool          // a live snapshot references the current Rows header
	gen    uint64        // bumped whenever rows other than a trailing append change
}

// View is a named stored SELECT.
type View struct {
	Name   string
	Select *SelectStmt
}

// DB is an in-memory relational database. All methods are safe for
// concurrent use; writers exclude readers.
type DB struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	views   map[string]*View
	noIndex bool // disables the hash-index planner (ablation / debugging)
}

// New creates an empty database.
func New() *DB {
	return &DB{
		tables: make(map[string]*Table),
		views:  make(map[string]*View),
	}
}

// SetIndexing enables or disables the hash-index planner for this database
// (and for snapshots taken after the call). Indexing is on by default; the
// switch exists for the indexed-vs-scan ablation and differential tests.
func (db *DB) SetIndexing(on bool) {
	db.mu.Lock()
	db.noIndex = !on
	db.mu.Unlock()
}

// evaluator builds an expression evaluator over the database's live tables.
// The caller must hold db.mu (shared or exclusive).
func (db *DB) evaluator(params []Value) *evaluator {
	return &evaluator{tables: db.tables, views: db.views, params: params, indexing: !db.noIndex}
}

// Result is the outcome of a query.
type Result struct {
	Columns []string
	Rows    [][]Value
}

// Empty reports whether the result has no rows.
func (r *Result) Empty() bool { return len(r.Rows) == 0 }

// Stmt is a prepared statement that can be executed repeatedly without
// re-parsing.
type Stmt struct {
	db *DB
	st Statement
}

// Prepare parses a statement for repeated execution.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, st: st}, nil
}

// PrepareScript parses a semicolon-separated script into one prepared
// statement per statement, so callers that re-run fixed SQL (invariant
// checks, trim queries) parse it once instead of on every execution.
func (db *DB) PrepareScript(sql string) ([]*Stmt, error) {
	stmts, err := ParseAll(sql)
	if err != nil {
		return nil, err
	}
	out := make([]*Stmt, len(stmts))
	for i, st := range stmts {
		out[i] = &Stmt{db: db, st: st}
	}
	return out, nil
}

// ExecValues runs the prepared statement with the given parameters and
// returns the number of rows affected (for writes) or returned (for
// queries). Its callers hold converted Values; DB.Exec and DB.Query take Go
// values and convert them for the same runner. The statement keeps no
// reference to params.
func (s *Stmt) ExecValues(params []Value) (int, error) {
	res, n, err := s.db.run(s.st, params)
	if err != nil {
		return 0, err
	}
	if res != nil {
		return len(res.Rows), nil
	}
	return n, nil
}

// Exec parses and runs one or more semicolon-separated statements, returning
// the total number of affected rows. Parameters apply in order across the
// script.
func (db *DB) Exec(sql string, args ...any) (int, error) {
	stmts, err := ParseAll(sql)
	if err != nil {
		return 0, err
	}
	params, err := fromGoArgs(args)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, st := range stmts {
		_, n, err := db.run(st, params)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// Query parses and runs a single SELECT.
func (db *DB) Query(sql string, args ...any) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	params, err := fromGoArgs(args)
	if err != nil {
		return nil, err
	}
	res, _, err := db.run(st, params)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("sqldb: statement is not a query")
	}
	return res, nil
}

// fromGoArgs converts Go arguments to parameter values.
func fromGoArgs(args []any) ([]Value, error) {
	params := make([]Value, len(args))
	for i, a := range args {
		v, err := FromGo(a)
		if err != nil {
			return nil, err
		}
		params[i] = v
	}
	return params, nil
}

// run dispatches a parsed statement — every entry point's one runner. It
// returns a Result for queries, or an affected-row count for writes.
func (db *DB) run(st Statement, params []Value) (*Result, int, error) {
	switch s := st.(type) {
	case *SelectStmt:
		db.mu.RLock()
		defer db.mu.RUnlock()
		res, err := db.evaluator(params).execSelect(s, nil)
		return res, 0, err
	case *CreateTableStmt:
		return nil, 0, db.createTable(s)
	case *CreateViewStmt:
		return nil, 0, db.createView(s)
	case *InsertStmt:
		n, err := db.insert(s, params)
		return nil, n, err
	case *DeleteStmt:
		n, err := db.delete(s, params)
		return nil, n, err
	default:
		return nil, 0, fmt.Errorf("sqldb: unsupported statement %T", st)
	}
}

func (db *DB) createTable(s *CreateTableStmt) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(s.Name)
	if _, ok := db.tables[key]; ok {
		return fmt.Errorf("%w: %s", ErrTableExists, s.Name)
	}
	if _, ok := db.views[key]; ok {
		return fmt.Errorf("%w: %s (as view)", ErrTableExists, s.Name)
	}
	seen := map[string]bool{}
	for _, c := range s.Cols {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return fmt.Errorf("sqldb: duplicate column %s", c.Name)
		}
		seen[lc] = true
	}
	db.tables[key] = &Table{Name: s.Name, Cols: s.Cols, idx: newTableIndexes()}
	return nil
}

func (db *DB) createView(s *CreateViewStmt) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(s.Name)
	if _, ok := db.views[key]; ok {
		return fmt.Errorf("%w: %s", ErrTableExists, s.Name)
	}
	if _, ok := db.tables[key]; ok {
		return fmt.Errorf("%w: %s (as table)", ErrTableExists, s.Name)
	}
	// Every source the view names, at any depth, must exist already. Nothing
	// can be dropped or redefined, so views then never form a cycle, which
	// would expand without end.
	if _, err := db.evaluator(nil).freeVars(s.Select, nil); err != nil {
		return fmt.Errorf("sqldb: view %s: %w", s.Name, err)
	}
	db.views[key] = &View{Name: s.Name, Select: s.Select}
	return nil
}

// applyAffinity coerces a value according to the column's declared type,
// following SQLite's affinity rules closely enough for audit-log use.
func applyAffinity(v Value, t Kind) Value {
	switch {
	case t == KindInt && v.kind == KindText:
		s := strings.TrimSpace(v.s)
		var n int64
		if _, err := fmt.Sscanf(s, "%d", &n); err == nil && fmt.Sprintf("%d", n) == s {
			return Int(n)
		}
	case t == KindText && v.kind == KindInt:
		return Text(v.TextVal())
	}
	return v
}

func (db *DB) insert(s *InsertStmt, params []Value) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	// Every row is evaluated before the first is stored, so a statement that
	// fails stores none.
	ev := db.evaluator(params)
	rows := make([][]Value, len(s.Rows))
	for ri, exprs := range s.Rows {
		if len(exprs) != len(t.Cols) {
			return 0, fmt.Errorf("sqldb: %d values for %d columns", len(exprs), len(t.Cols))
		}
		row := make([]Value, len(exprs))
		for i, e := range exprs {
			v, err := ev.eval(e, nil)
			if err != nil {
				return 0, err
			}
			row[i] = applyAffinity(v, t.Cols[i].Type)
		}
		rows[ri] = row
	}
	t.Rows = append(t.Rows, rows...)
	return len(rows), nil
}

func (db *DB) delete(s *DeleteStmt, params []Value) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	return db.evaluator(params).deleteRows(t, s.Where)
}

// deleteRows is the one DELETE routine, run on a live table under db.mu and
// on a snapshot's private table by PlanTrim. The predicate is evaluated over
// the unmodified table first, so subqueries against the same table (as in
// LibSEAL's trimming queries) see one consistent state.
func (ev *evaluator) deleteRows(t *Table, where Expr) (int, error) {
	var keep [][]Value // a fresh array: t.Rows stays as it is until the end
	if where != nil {
		keep = make([][]Value, 0, len(t.Rows))
		// One scope serves every row: eval keeps no reference to it.
		scope := &rowScope{cols: tableCols(t, strings.ToLower(t.Name))}
		for _, row := range t.Rows {
			scope.row = row
			v, err := ev.eval(where, scope)
			if err != nil {
				return 0, err
			}
			if truth, _ := v.Truth(); !truth {
				keep = append(keep, row)
			}
		}
	}
	deleted := len(t.Rows) - len(keep)
	if deleted > 0 {
		t.replaceRows(keep)
	}
	return deleted, nil
}

// replaceRows installs a fresh row array the caller owns: a snapshot keeps
// the old one, so the new header is unshared; surviving rows shifted
// position, so every index is stale; and the prefix any earlier snapshot
// captured is gone, which gen records for ApplyTrim.
func (t *Table) replaceRows(rows [][]Value) {
	t.Rows = rows
	t.shared = false
	t.gen++
	if t.idx != nil {
		t.idx.invalidateAll()
	}
}

// Tables lists the table names in the database.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.Name)
	}
	return out
}

// TableRows returns a table's rows in storage order, in a slice of its own;
// the rows themselves are immutable once stored and are shared, not copied.
func (db *DB) TableRows(name string) ([][]Value, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return append([][]Value(nil), t.Rows...), nil
}

// RemoveLastRows removes the n most recently inserted rows of a table. It
// lets a caller undo its own trailing inserts when a multi-row group fails
// part-way; such a caller must serialise the table's writers so the trailing
// rows are in fact its own.
func (db *DB) RemoveLastRows(name string, n int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	if n > len(t.Rows) {
		n = len(t.Rows)
	}
	m := len(t.Rows) - n
	if t.shared {
		// Clip capacity too: a snapshot may still see the truncated suffix,
		// so later appends must reallocate rather than overwrite it.
		t.Rows = t.Rows[:m:m]
	} else {
		t.Rows = t.Rows[:m]
	}
	if n > 0 {
		t.gen++
		if t.idx != nil {
			t.idx.invalidateAll() // index watermark may exceed the new length
		}
	}
	return nil
}

// TableRowCount returns the number of rows in a table.
func (db *DB) TableRowCount(name string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return len(t.Rows), nil
}
