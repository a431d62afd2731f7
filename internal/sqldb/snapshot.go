package sqldb

import (
	"errors"
	"fmt"
	"strings"
)

// Copy-on-write snapshots.
//
// A Snapshot freezes the database's contents in O(tables): it copies each
// table's row-slice *header* (not the rows) and marks the table shared.
// Row slices are immutable once stored, so the only hazard is a store into
// the outer Rows array below a snapshot's length, and none of the three
// writers makes one:
//
//   - INSERT appends at positions >= every snapshot's length — disjoint
//     memory, no copy needed.
//   - DELETE rebuilds into a fresh array.
//   - RemoveLastRows clips capacity while shared, so later appends
//     reallocate instead of overwriting the truncated suffix a snapshot
//     still exposes.
//
// Queries against a snapshot therefore need no lock and see exactly the
// rows present at capture time, while writers proceed concurrently. Each
// snapshot table gets a fresh index registry: hash indexes built during a
// snapshot query belong to the snapshot and die with it, and the live
// table's indexes are never shared across the boundary.

// Snapshot is a view of a DB at one instant, immutable until PlanTrim — which
// works on the snapshot's private tables, never the database's — ends its
// use.
type Snapshot struct {
	tables   map[string]*Table
	views    map[string]*View
	indexing bool
	origin   map[string]tableOrigin
}

// tableOrigin ties a snapshot's table to the live one it was taken from: the
// live table, and its generation and row count at capture.
type tableOrigin struct {
	live *Table
	gen  uint64
	n    int
}

// Snapshot captures the current contents of the database. The write lock
// is held only for the O(tables) header copy.
func (db *DB) Snapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := &Snapshot{
		tables:   make(map[string]*Table, len(db.tables)),
		views:    make(map[string]*View, len(db.views)),
		indexing: !db.noIndex,
		origin:   make(map[string]tableOrigin, len(db.tables)),
	}
	for k, t := range db.tables {
		t.shared = true
		s.tables[k] = &Table{Name: t.Name, Cols: t.Cols, Rows: t.Rows, idx: newTableIndexes(), gen: t.gen}
		s.origin[k] = tableOrigin{live: t, gen: t.gen, n: len(t.Rows)}
	}
	for k, v := range db.views {
		s.views[k] = v
	}
	return s
}

// evaluator builds an expression evaluator over the snapshot's frozen
// tables. No lock is needed: the tables are immutable.
func (s *Snapshot) evaluator(params []Value) *evaluator {
	return &evaluator{tables: s.tables, views: s.views, params: params, indexing: s.indexing}
}

func toParams(args []any) ([]Value, error) {
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

// QueryStmt runs a prepared SELECT against the snapshot.
func (s *Snapshot) QueryStmt(stmt *Stmt, args ...any) (*Result, error) {
	sel, ok := stmt.st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqldb: snapshot query requires a SELECT")
	}
	params, err := toParams(args)
	if err != nil {
		return nil, err
	}
	return s.evaluator(params).execSelect(sel, nil)
}

// TrimPlan is the outcome of running a trim script on a snapshot: for every
// table the script deleted from, the survivors of the rows the snapshot
// captured. DB.ApplyTrim commits it to the live tables.
type TrimPlan struct {
	tables  []trimmedTable
	deleted int
}

// trimmedTable is one table's share of a plan: where its captured rows came
// from and what the script kept of them.
type trimmedTable struct {
	tableOrigin
	keep [][]Value
}

// Deleted is the number of captured rows the script removed. Zero means
// applying the plan would change nothing.
func (p *TrimPlan) Deleted() int { return p.deleted }

// ErrTrimStale reports a trim plan whose captured rows are no longer the
// leading rows of their live table: something other than an append touched
// the table after the snapshot was taken.
var ErrTrimStale = errors.New("sqldb: trim plan is stale")

// PlanTrim runs the DELETE statements, in order, on the snapshot's own
// tables — each statement sees what the ones before it left, exactly as the
// script run on the database would — and returns what survived. The snapshot
// afterwards shows the trimmed state, so this is the last thing to do with
// it. No lock is held and the live database is untouched until ApplyTrim.
func (s *Snapshot) PlanTrim(stmts []*Stmt) (*TrimPlan, error) {
	plan := &TrimPlan{}
	for _, st := range stmts {
		del, ok := st.st.(*DeleteStmt)
		if !ok {
			return nil, fmt.Errorf("sqldb: trim statement is not a DELETE: %T", st.st)
		}
		key := strings.ToLower(del.Table)
		t, ok := s.tables[key]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, del.Table)
		}
		n, err := s.evaluator(nil).deleteRows(t, del.Where)
		if err != nil {
			return nil, err
		}
		plan.deleted += n
	}
	for key, o := range s.origin {
		// deleteRows moved the generation of every table it deleted from.
		if t := s.tables[key]; t.gen != o.gen {
			plan.tables = append(plan.tables, trimmedTable{o, t.Rows})
		}
	}
	return plan, nil
}

// ApplyTrim commits a plan: each trimmed table becomes the plan's survivors
// followed by every row appended since the snapshot, which the script never
// saw and which therefore stay. If any of those tables changed in another way
// in between (a DELETE, a RemoveLastRows) the plan is refused with
// ErrTrimStale and nothing is trimmed.
func (db *DB) ApplyTrim(p *TrimPlan) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, tt := range p.tables {
		if tt.live.gen != tt.gen || len(tt.live.Rows) < tt.n {
			return fmt.Errorf("%w: table %s", ErrTrimStale, tt.live.Name)
		}
	}
	for _, tt := range p.tables {
		since := tt.live.Rows[tt.n:]
		rows := make([][]Value, 0, len(tt.keep)+len(since))
		tt.live.replaceRows(append(append(rows, tt.keep...), since...))
	}
	return nil
}
