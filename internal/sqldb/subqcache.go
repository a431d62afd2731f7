package sqldb

import (
	"fmt"
	"strings"
)

// Subquery result caching.
//
// Correlated subqueries are re-evaluated for every outer row; audit-log
// invariants like LibSEAL's Git soundness check nest a MAX-per-(repo,branch)
// subquery inside a join, which scales as O(rows^3) when evaluated naively.
// SQLite sidesteps this with automatic indexes; this engine instead caches
// each subquery's result keyed by the values of its *free variables* — the
// column references that resolve in an enclosing scope. Distinct bindings
// are usually far fewer than outer rows, collapsing the blow-up. A subquery
// with no free variables is evaluated once per statement. No statement of the
// grammar changes rows while it evaluates (DELETE computes its survivors
// first, INSERT its values), so a cached result cannot go stale.

// freeRef names one free variable of a subquery.
type freeRef struct {
	table, name string // lower-cased
}

// subqInfo is the per-statement cache state for one subquery AST node.
type subqInfo struct {
	uncachable bool
	free       []freeRef
	cache      map[string]*subqEntry
}

// subqEntry is one cached subquery result and, once an IN has probed it, the
// hashed set of its rows.
type subqEntry struct {
	res *Result
	in  *inSet
}

// subqInfoFor analyses the subquery's free variables once per evaluator.
func (ev *evaluator) subqInfoFor(sel *SelectStmt) *subqInfo {
	if ev.subq == nil {
		ev.subq = make(map[*SelectStmt]*subqInfo)
	}
	if info, ok := ev.subq[sel]; ok {
		return info
	}
	info := &subqInfo{cache: make(map[string]*subqEntry)}
	free, err := ev.freeVars(sel, nil)
	if err != nil {
		info.uncachable = true
	} else {
		// Deduplicate, preserving order for a stable key.
		seen := map[freeRef]bool{}
		for _, fr := range free {
			if !seen[fr] {
				seen[fr] = true
				info.free = append(info.free, fr)
			}
		}
	}
	ev.subq[sel] = info
	return info
}

// execSelectCached evaluates a subquery with result caching.
func (ev *evaluator) execSelectCached(sel *SelectStmt, s *rowScope) (*Result, error) {
	e, err := ev.cachedSubquery(sel, s)
	if err != nil {
		return nil, err
	}
	if e == nil {
		return ev.execSelect(sel, s)
	}
	return e.res, nil
}

// cachedSubquery returns the cache entry holding the subquery's result under
// the current bindings, evaluating it on a miss. A nil entry means this
// evaluation cannot be cached; the caller evaluates the subquery directly.
func (ev *evaluator) cachedSubquery(sel *SelectStmt, s *rowScope) (*subqEntry, error) {
	if ev.nocache {
		return nil, nil
	}
	info := ev.subqInfoFor(sel)
	if info.uncachable {
		return nil, nil
	}
	var arr [64]byte
	key := arr[:0]
	for _, fr := range info.free {
		v, ok := resolveInChain(s, fr)
		if !ok {
			// The binding environment differs from the analysis; fall back.
			return nil, nil
		}
		key = v.appendKey(key)
	}
	if e, ok := info.cache[string(key)]; ok {
		return e, nil
	}
	res, err := ev.execSelect(sel, s)
	if err != nil {
		return nil, err
	}
	e := &subqEntry{res: res}
	info.cache[string(key)] = e
	return e, nil
}

// inSet is a single-column subquery result hashed for IN / NOT IN probes, so
// that a statement probing one cached result from every outer row (the
// paper's trim query, `time NOT IN (SELECT MAX(time) ... GROUP BY ...)`)
// costs O(outer + members) instead of their product. Members are keyed with
// Value.appendKey, so key equality is Compare equality.
type inSet struct {
	keys    map[string]int
	sawNull bool // a member is NULL: a miss is unknown, not false
}

func newInSet(rows [][]Value) *inSet {
	set := &inSet{keys: make(map[string]int, len(rows))}
	var arena []byte
	ends := make([]int, 0, len(rows))
	for _, row := range rows {
		m := row[0]
		if m.IsNull() {
			set.sawNull = true
			continue
		}
		arena = m.appendKey(arena)
		ends = append(ends, len(arena))
	}
	keyIDs(set.keys, arena, ends)
	return set
}

func (set *inSet) has(v Value) bool {
	var arr [64]byte
	_, ok := set.keys[string(v.appendKey(arr[:0]))]
	return ok
}

// resolveInChain looks a free variable up across the scope chain.
func resolveInChain(s *rowScope, fr freeRef) (Value, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		idx, err := sc.lookup(fr.table, fr.name)
		if err != nil {
			return Null(), false
		}
		if idx >= 0 {
			return sc.row[idx], true
		}
	}
	return Null(), false
}

// freeVars collects the column references in sel that do not bind in sel's
// own FROM sources (nor in `outerBound`, the bound columns of enclosing
// subqueries between sel and the caching site).
func (ev *evaluator) freeVars(sel *SelectStmt, outerBound []scopeCol) ([]freeRef, error) {
	bound, err := ev.sourceCols(sel.From)
	if err != nil {
		return nil, err
	}
	env := append(append([]scopeCol{}, bound...), outerBound...)
	var free []freeRef
	collect := func(e Expr) error {
		f, err := ev.freeInExpr(e, env)
		if err != nil {
			return err
		}
		free = append(free, f...)
		return nil
	}
	for _, item := range sel.Items {
		if item.Star {
			continue
		}
		if err := collect(item.Expr); err != nil {
			return nil, err
		}
	}
	for te := sel.From; te != nil; {
		// The chain is left-deep: each join's ON, then the join before it.
		j, ok := te.(*JoinExpr)
		if !ok {
			break
		}
		if err := collect(j.On); err != nil {
			return nil, err
		}
		te = j.Left
	}
	if err := collect(sel.Where); err != nil {
		return nil, err
	}
	for _, g := range sel.GroupBy {
		if err := collect(g); err != nil {
			return nil, err
		}
	}
	if err := collect(sel.Having); err != nil {
		return nil, err
	}
	for _, k := range sel.OrderBy {
		if err := collect(k.Expr); err != nil {
			return nil, err
		}
	}
	if err := collect(sel.Limit); err != nil {
		return nil, err
	}
	return free, nil
}

// freeInExpr walks an expression, descending into nested subqueries with
// their own bindings added.
func (ev *evaluator) freeInExpr(e Expr, bound []scopeCol) ([]freeRef, error) {
	switch x := e.(type) {
	case nil:
		return nil, nil
	case *Literal, *ParamExpr:
		return nil, nil
	case *ColExpr:
		table := strings.ToLower(x.Table)
		name := strings.ToLower(x.Name)
		for _, c := range bound {
			if c.name == name && (table == "" || c.table == table) {
				return nil, nil
			}
		}
		return []freeRef{{table: table, name: name}}, nil
	case *Unary:
		return ev.freeInExpr(x.X, bound)
	case *Binary:
		l, err := ev.freeInExpr(x.L, bound)
		if err != nil {
			return nil, err
		}
		r, err := ev.freeInExpr(x.R, bound)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	case *FuncCall:
		return ev.freeInExpr(x.Arg, bound)
	case *IsNullExpr:
		return ev.freeInExpr(x.X, bound)
	case *SubqueryExpr:
		return ev.freeVars(x.Select, bound)
	case *ExistsExpr:
		return ev.freeVars(x.Select, bound)
	case *InExpr:
		out, err := ev.freeInExpr(x.X, bound)
		if err != nil {
			return nil, err
		}
		f, err := ev.freeVars(x.Select, bound)
		if err != nil {
			return nil, err
		}
		return append(out, f...), nil
	}
	return nil, nil
}

// sourceCols computes a FROM clause's visible columns without materialising
// rows.
func (ev *evaluator) sourceCols(te TableExpr) ([]scopeCol, error) {
	switch t := te.(type) {
	case nil:
		return nil, nil
	case *TableName:
		key := strings.ToLower(t.Name)
		alias := strings.ToLower(t.Alias)
		if alias == "" {
			alias = key
		}
		if tbl, ok := ev.tables[key]; ok {
			return tableCols(tbl, alias), nil
		}
		if view, ok := ev.views[key]; ok {
			names, err := ev.outputCols(view.Select)
			if err != nil {
				return nil, err
			}
			cols := make([]scopeCol, len(names))
			for i, n := range names {
				cols[i] = scopeCol{table: alias, name: strings.ToLower(n)}
			}
			return cols, nil
		}
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, t.Name)
	case *JoinExpr:
		lcols, err := ev.sourceCols(t.Left)
		if err != nil {
			return nil, err
		}
		rcols, err := ev.sourceCols(t.Right)
		if err != nil {
			return nil, err
		}
		if !t.Natural {
			return append(lcols, rcols...), nil
		}
		out := append([]scopeCol{}, lcols...)
		for _, rc := range rcols {
			dup := false
			for _, lc := range lcols {
				if lc.name == rc.name {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, rc)
			}
		}
		return out, nil
	}
	return nil, nil
}

// outputCols computes a select's result column names without executing it.
func (ev *evaluator) outputCols(sel *SelectStmt) ([]string, error) {
	var names []string
	for _, item := range sel.Items {
		if item.Star {
			cols, err := ev.sourceCols(sel.From)
			if err != nil {
				return nil, err
			}
			for _, c := range cols {
				names = append(names, c.name)
			}
			continue
		}
		if item.Alias != "" {
			names = append(names, item.Alias)
			continue
		}
		if ce, ok := item.Expr.(*ColExpr); ok {
			names = append(names, ce.Name)
			continue
		}
		names = append(names, exprName(item.Expr))
	}
	return names, nil
}

// QueryWithCache runs a SELECT with the subquery cache explicitly enabled or
// disabled. The uncached run is the reference the cache's ablation benchmark
// and differential tests compare against; normal callers use DB.Query, which
// always caches.
func QueryWithCache(db *DB, sql string, cached bool) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqldb: QueryWithCache requires a SELECT")
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	ev := db.evaluator(nil)
	ev.nocache = !cached
	return ev.execSelect(sel, nil)
}
