package sqldb

import (
	"fmt"
	"strings"
)

// scopeCol names one column visible in a row scope.
type scopeCol struct {
	table string // source alias, lower-cased; may be ""
	name  string // column name, lower-cased
}

// rowScope is the name-resolution environment for expression evaluation.
// parent chains to outer queries for correlated subqueries. group is set
// while evaluating select/having expressions of an aggregated query.
type rowScope struct {
	cols    []scopeCol
	row     []Value
	parent  *rowScope
	grouped bool      // true while evaluating aggregate-context expressions
	group   [][]Value // the group's source rows (may be empty)
	member  *rowScope // grouped: the scope an aggregate walks the group in
}

// lookup resolves a column reference in this scope only. It returns the
// column index or -1, and an error on ambiguity.
func (s *rowScope) lookup(table, name string) (int, error) {
	found := -1
	for i, c := range s.cols {
		if c.name != name {
			continue
		}
		if table != "" && c.table != table {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("sqldb: ambiguous column %q", name)
		}
		found = i
	}
	return found, nil
}

// evaluator executes expressions and queries against a fixed set of tables
// and views — either a DB's live maps (whose lock the caller holds) or a
// snapshot's frozen clones.
type evaluator struct {
	tables map[string]*Table
	views  map[string]*View
	params []Value
	// indexing enables the hash-index planner (equality WHERE probes and
	// hash equi-joins); see index.go.
	indexing bool
	// subq caches subquery results keyed by free-variable bindings; see
	// subqcache.go. nocache disables it: the reference path QueryWithCache
	// and the differential tests compare against.
	subq    map[*SelectStmt]*subqInfo
	nocache bool
}

func (ev *evaluator) param(i int) (Value, error) {
	if i >= len(ev.params) {
		return Null(), fmt.Errorf("sqldb: missing parameter %d (have %d)", i+1, len(ev.params))
	}
	return ev.params[i], nil
}

// isAggregateName reports whether name is one of the grammar's functions,
// all of them aggregates.
func isAggregateName(name string) bool {
	return name == "COUNT" || name == "MIN" || name == "MAX"
}

// hasAggregate reports whether the expression contains an aggregate call at
// this query level (subqueries own their aggregates).
func hasAggregate(e Expr) bool {
	switch x := e.(type) {
	case *FuncCall:
		return true
	case *Unary:
		return hasAggregate(x.X)
	case *Binary:
		return hasAggregate(x.L) || hasAggregate(x.R)
	case *IsNullExpr:
		return hasAggregate(x.X)
	case *InExpr:
		return hasAggregate(x.X)
	}
	return false
}

// eval computes an expression in the given scope (nil for constant
// expressions).
func (ev *evaluator) eval(e Expr, s *rowScope) (Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil

	case *ParamExpr:
		return ev.param(x.Index)

	case *ColExpr:
		table := strings.ToLower(x.Table)
		name := strings.ToLower(x.Name)
		for sc := s; sc != nil; sc = sc.parent {
			idx, err := sc.lookup(table, name)
			if err != nil {
				return Null(), err
			}
			if idx >= 0 {
				return sc.row[idx], nil
			}
		}
		if x.Table != "" {
			return Null(), fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, x.Table, x.Name)
		}
		return Null(), fmt.Errorf("%w: %s", ErrNoSuchColumn, x.Name)

	case *Unary:
		v, err := ev.eval(x.X, s)
		if err != nil {
			return Null(), err
		}
		switch x.Op {
		case "-":
			if v.IsNull() {
				return Null(), nil
			}
			return Int(-v.Int64()), nil
		case "NOT":
			truth, known := v.Truth()
			if !known {
				return Null(), nil
			}
			return Bool(!truth), nil
		}
		return Null(), fmt.Errorf("sqldb: unknown unary operator %q", x.Op)

	case *Binary:
		return ev.evalBinary(x, s)

	case *FuncCall:
		return ev.evalAggregate(x, s)

	case *SubqueryExpr:
		res, err := ev.execSelectCached(x.Select, s)
		if err != nil {
			return Null(), err
		}
		if len(res.Rows) == 0 {
			return Null(), nil
		}
		if len(res.Rows[0]) == 0 {
			return Null(), nil
		}
		return res.Rows[0][0], nil

	case *InExpr:
		return ev.evalIn(x, s)

	case *ExistsExpr:
		res, err := ev.execSelectCached(x.Select, s)
		if err != nil {
			return Null(), err
		}
		return Bool(x.Not != (len(res.Rows) > 0)), nil

	case *IsNullExpr:
		v, err := ev.eval(x.X, s)
		if err != nil {
			return Null(), err
		}
		return Bool(x.Not != v.IsNull()), nil
	}
	return Null(), fmt.Errorf("sqldb: cannot evaluate %T", e)
}

func (ev *evaluator) evalBinary(x *Binary, s *rowScope) (Value, error) {
	// AND/OR get short-circuit three-valued logic.
	switch x.Op {
	case "AND":
		lv, err := ev.eval(x.L, s)
		if err != nil {
			return Null(), err
		}
		lt, lk := lv.Truth()
		if lk && !lt {
			return Bool(false), nil
		}
		rv, err := ev.eval(x.R, s)
		if err != nil {
			return Null(), err
		}
		rt, rk := rv.Truth()
		if rk && !rt {
			return Bool(false), nil
		}
		if !lk || !rk {
			return Null(), nil
		}
		return Bool(true), nil
	case "OR":
		lv, err := ev.eval(x.L, s)
		if err != nil {
			return Null(), err
		}
		lt, lk := lv.Truth()
		if lk && lt {
			return Bool(true), nil
		}
		rv, err := ev.eval(x.R, s)
		if err != nil {
			return Null(), err
		}
		rt, rk := rv.Truth()
		if rk && rt {
			return Bool(true), nil
		}
		if !lk || !rk {
			return Null(), nil
		}
		return Bool(false), nil
	}

	lv, err := ev.eval(x.L, s)
	if err != nil {
		return Null(), err
	}
	rv, err := ev.eval(x.R, s)
	if err != nil {
		return Null(), err
	}
	switch x.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		cmp, ok := CompareSQL(lv, rv)
		if !ok {
			return Null(), nil
		}
		switch x.Op {
		case "=":
			return Bool(cmp == 0), nil
		case "!=":
			return Bool(cmp != 0), nil
		case "<":
			return Bool(cmp < 0), nil
		case "<=":
			return Bool(cmp <= 0), nil
		case ">":
			return Bool(cmp > 0), nil
		case ">=":
			return Bool(cmp >= 0), nil
		}
	case "+", "-", "*", "/", "%":
		if lv.IsNull() || rv.IsNull() {
			return Null(), nil
		}
		li, ri := lv.Int64(), rv.Int64()
		switch x.Op {
		case "+":
			return Int(li + ri), nil
		case "-":
			return Int(li - ri), nil
		case "*":
			return Int(li * ri), nil
		case "/":
			if ri == 0 {
				return Null(), nil
			}
			return Int(li / ri), nil
		case "%":
			if ri == 0 {
				return Null(), nil
			}
			return Int(li % ri), nil
		}
	}
	return Null(), fmt.Errorf("sqldb: unknown operator %q", x.Op)
}

func (ev *evaluator) evalIn(x *InExpr, s *rowScope) (Value, error) {
	v, err := ev.eval(x.X, s)
	if err != nil {
		return Null(), err
	}
	found, sawNull, err := ev.inSubquery(v, x.Select, s)
	if err != nil {
		return Null(), err
	}
	switch {
	case v.IsNull():
		return Null(), nil
	case found:
		return Bool(!x.Not), nil
	case sawNull:
		return Null(), nil // unknown: value may equal the NULL member
	}
	return Bool(x.Not), nil
}

// inMember reports whether v equals the IN member m, noting in sawNull a
// comparison SQL leaves unknown.
func inMember(v, m Value, sawNull *bool) bool {
	cmp, ok := CompareSQL(v, m)
	if !ok {
		*sawNull = true
	}
	return ok && cmp == 0
}

// inSubquery answers v IN (sel): a probe of the hashed set kept beside the
// cached result when there is one, a scan of the rows otherwise.
func (ev *evaluator) inSubquery(v Value, sel *SelectStmt, s *rowScope) (found, sawNull bool, err error) {
	e, err := ev.cachedSubquery(sel, s)
	if err != nil {
		return false, false, err
	}
	var res *Result
	if e != nil {
		res = e.res
	} else if res, err = ev.execSelect(sel, s); err != nil {
		return false, false, err
	}
	if len(res.Rows) > 0 && len(res.Rows[0]) != 1 {
		return false, false, fmt.Errorf("sqldb: IN subquery must return one column, got %d", len(res.Rows[0]))
	}
	if v.IsNull() {
		return false, false, nil
	}
	if e != nil {
		if e.in == nil {
			e.in = newInSet(res.Rows)
		}
		return e.in.has(v), e.in.sawNull, nil
	}
	for _, row := range res.Rows {
		if inMember(v, row[0], &sawNull) {
			return true, sawNull, nil
		}
	}
	return false, sawNull, nil
}

// evalAggregate computes COUNT, MIN or MAX over the group carried by the
// nearest aggregated scope. NULL arguments are skipped.
func (ev *evaluator) evalAggregate(x *FuncCall, s *rowScope) (Value, error) {
	gs := s
	for gs != nil && !gs.grouped {
		gs = gs.parent
	}
	if gs == nil {
		return Null(), fmt.Errorf("sqldb: aggregate %s used outside aggregation", x.Name)
	}
	if x.Star {
		return Int(int64(len(gs.group))), nil
	}
	count := 0
	best := Null()  // the MIN or MAX so far; NULL over no values
	rs := gs.member // its parent skips gs: no aggregate nested in x reuses it
	for _, row := range gs.group {
		rs.row = row
		v, err := ev.eval(x.Arg, rs)
		if err != nil {
			return Null(), err
		}
		if v.IsNull() {
			continue
		}
		count++
		switch {
		case count == 1:
			best = v
		case x.Name == "MIN" && Compare(v, best) < 0:
			best = v
		case x.Name == "MAX" && Compare(v, best) > 0:
			best = v
		}
	}
	if x.Name == "COUNT" {
		return Int(int64(count)), nil
	}
	return best, nil
}
