package sqldb

import (
	"fmt"
	"sort"
	"strings"
)

// lessKeys orders two precomputed sort-key tuples under per-key direction
// flags.
func lessKeys(a, b []Value, desc []bool) bool {
	for i := range a {
		c := Compare(a[i], b[i])
		if desc[i] {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return false
}

func (ev *evaluator) applyLimit(st *SelectStmt, res *Result) error {
	if st.Limit == nil {
		return nil
	}
	lv, err := ev.eval(st.Limit, nil)
	if err != nil {
		return err
	}
	if limit := int(lv.Int64()); limit >= 0 && limit < len(res.Rows) {
		res.Rows = res.Rows[:limit]
	}
	return nil
}

// projected carries one output row plus its sort keys.
type projected struct {
	out  []Value
	keys []Value
}

// execSelect runs a SELECT. outer is the enclosing row scope for correlated
// subqueries, nil at top level.
func (ev *evaluator) execSelect(st *SelectStmt, outer *rowScope) (*Result, error) {
	var cols []scopeCol
	var rows [][]Value
	var src *fromSource
	if st.From != nil {
		var err error
		src, err = ev.evalFrom(st.From, outer)
		if err != nil {
			return nil, err
		}
		cols, rows = src.cols, src.rows
	} else {
		rows = [][]Value{{}}
	}

	// Validate column references at this query level eagerly so that a bad
	// query fails even over an empty table. Subquery bodies are validated
	// when they execute.
	validate := func(e Expr) error { return validateCols(e, cols, outer) }
	for _, item := range st.Items {
		if !item.Star {
			if err := validate(item.Expr); err != nil {
				return nil, err
			}
		}
	}
	if err := validate(st.Where); err != nil {
		return nil, err
	}
	for _, ge := range st.GroupBy {
		if err := validate(ge); err != nil {
			return nil, err
		}
	}
	if err := validate(st.Having); err != nil {
		return nil, err
	}

	// WHERE filter. When the source is a single base table and the WHERE
	// carries usable equality conjuncts, probe the table's hash index first
	// to shrink the candidate set (index.go); the full predicate is still
	// evaluated over every candidate, so the probe only has to be a
	// superset and the result is identical to a scan.
	if st.Where != nil {
		if cand, ok, err := ev.indexFilter(src, st.Where, outer); err != nil {
			return nil, err
		} else if ok {
			rows = cand
		}
		filtered := rows[:0:0]
		// One scope serves every row: eval keeps no reference to it.
		s := &rowScope{cols: cols, parent: outer}
		for _, row := range rows {
			s.row = row
			v, err := ev.eval(st.Where, s)
			if err != nil {
				return nil, err
			}
			if truth, _ := v.Truth(); truth {
				filtered = append(filtered, row)
			}
		}
		rows = filtered
	}

	aggregated := len(st.GroupBy) > 0 || st.Having != nil
	if !aggregated {
		for _, item := range st.Items {
			if item.Expr != nil && hasAggregate(item.Expr) {
				aggregated = true
				break
			}
		}
	}
	if !aggregated {
		for _, k := range st.OrderBy {
			if hasAggregate(k.Expr) {
				aggregated = true
				break
			}
		}
	}

	// Expand the select list into concrete expressions and column names.
	type projItem struct {
		expr  Expr
		name  string
		alias string
	}
	var items []projItem
	for _, item := range st.Items {
		if item.Star {
			for _, c := range cols {
				items = append(items, projItem{
					expr: &ColExpr{Table: c.table, Name: c.name},
					name: c.name,
				})
			}
			continue
		}
		name := item.Alias
		if name == "" {
			if ce, ok := item.Expr.(*ColExpr); ok {
				name = ce.Name
			} else {
				name = exprName(item.Expr)
			}
		}
		items = append(items, projItem{expr: item.Expr, name: name, alias: item.Alias})
	}
	columns := make([]string, len(items))
	for i, it := range items {
		columns[i] = it.name
	}

	// Resolve ORDER BY keys: select-list aliases and 1-based positions map
	// to projected columns; anything else evaluates in the source scope.
	type orderPlan struct {
		colIdx int // >= 0: use projected column
		expr   Expr
		desc   bool
	}
	var plans []orderPlan
	for _, key := range st.OrderBy {
		plan := orderPlan{colIdx: -1, expr: key.Expr, desc: key.Desc}
		switch k := key.Expr.(type) {
		case *ColExpr:
			if k.Table == "" {
				for ci, it := range items {
					if it.alias != "" && strings.EqualFold(it.alias, k.Name) {
						plan.colIdx = ci
						break
					}
				}
			}
		case *Literal:
			if k.Val.Kind() == KindInt {
				n := int(k.Val.Int64())
				if n < 1 || n > len(items) {
					return nil, fmt.Errorf("sqldb: ORDER BY position %d out of range", n)
				}
				plan.colIdx = n - 1
			}
		}
		plans = append(plans, plan)
	}

	// Output rows and their sort keys are cut from one array per loop.
	width := len(items) + len(plans)
	var backing []Value
	project := func(s *rowScope) (projected, error) {
		vals := backing[:width:width]
		backing = backing[width:]
		p := projected{out: vals[:len(items):len(items)], keys: vals[len(items):]}
		for i, it := range items {
			v, err := ev.eval(it.expr, s)
			if err != nil {
				return p, err
			}
			p.out[i] = v
		}
		for i, plan := range plans {
			if plan.colIdx >= 0 {
				p.keys[i] = p.out[plan.colIdx]
				continue
			}
			v, err := ev.eval(plan.expr, s)
			if err != nil {
				return p, err
			}
			p.keys[i] = v
		}
		return p, nil
	}

	// Each loop below evaluates through one scope; eval keeps no reference
	// to it.
	var projRows []projected
	if aggregated {
		groups, err := ev.groupRows(st.GroupBy, cols, rows, outer)
		if err != nil {
			return nil, err
		}
		s := &rowScope{cols: cols, parent: outer, grouped: true, member: &rowScope{cols: cols, parent: outer}}
		projRows = make([]projected, 0, len(groups))
		backing = make([]Value, width*len(groups))
		for _, group := range groups {
			s.group = group
			if len(group) > 0 {
				s.row = group[0]
			} else {
				s.row = make([]Value, len(cols)) // all NULL
			}
			if st.Having != nil {
				hv, err := ev.eval(st.Having, s)
				if err != nil {
					return nil, err
				}
				if truth, _ := hv.Truth(); !truth {
					continue
				}
			}
			p, err := project(s)
			if err != nil {
				return nil, err
			}
			projRows = append(projRows, p)
		}
	} else {
		projRows = make([]projected, 0, len(rows))
		backing = make([]Value, width*len(rows))
		s := &rowScope{cols: cols, parent: outer}
		for _, row := range rows {
			s.row = row
			p, err := project(s)
			if err != nil {
				return nil, err
			}
			projRows = append(projRows, p)
		}
	}

	if st.Distinct {
		seen := make(map[string]struct{}, len(projRows))
		dedup := projRows[:0:0]
		var key []byte
		for _, p := range projRows {
			key = key[:0]
			for _, v := range p.out {
				key = v.appendKey(key)
			}
			if _, dup := seen[string(key)]; !dup {
				seen[string(key)] = struct{}{}
				dedup = append(dedup, p)
			}
		}
		projRows = dedup
	}

	if len(plans) > 0 {
		desc := make([]bool, len(plans))
		for i := range plans {
			desc[i] = plans[i].desc
		}
		sort.SliceStable(projRows, func(a, b int) bool {
			return lessKeys(projRows[a].keys, projRows[b].keys, desc)
		})
	}

	res := &Result{Columns: columns}
	if len(projRows) > 0 {
		res.Rows = make([][]Value, 0, len(projRows))
	}
	for _, p := range projRows {
		res.Rows = append(res.Rows, p.out)
	}
	if err := ev.applyLimit(st, res); err != nil {
		return nil, err
	}
	return res, nil
}

// groupRows partitions rows by the GROUP BY key expressions, in first-seen
// order. With no GROUP BY it forms a single group containing all rows
// (possibly zero, for global aggregates over empty inputs). The rows' keys
// share one arena (keyIDs) and the groups are cut from one array once their
// sizes are known, so grouping allocates per call, not per row or group.
func (ev *evaluator) groupRows(groupBy []Expr, cols []scopeCol, rows [][]Value, outer *rowScope) ([][][]Value, error) {
	if len(groupBy) == 0 {
		return [][][]Value{rows}, nil
	}
	var arena []byte
	of := make([]int, len(rows)) // each row's key's end, then its group
	s := &rowScope{cols: cols, parent: outer}
	for i, row := range rows {
		s.row = row
		for _, ge := range groupBy {
			v, err := ev.eval(ge, s)
			if err != nil {
				return nil, err
			}
			arena = v.appendKey(arena)
		}
		of[i] = len(arena)
	}
	index := make(map[string]int, len(rows))
	keyIDs(index, arena, of)
	sizes := make([]int, len(index))
	for _, g := range of {
		sizes[g]++
	}
	all := make([][]Value, len(rows))
	groups := make([][][]Value, len(sizes))
	for g, n := range sizes {
		groups[g], all = all[:0:n], all[n:]
	}
	for i, row := range rows {
		groups[of[i]] = append(groups[of[i]], row)
	}
	return groups, nil
}

// fromSource is one materialised FROM operand. tbl is the provenance used
// by the index planner: non-nil exactly when rows is a base table's live
// (or snapshot) row set, so positions in rows are positions in the table
// and the table's persistent index registry applies.
type fromSource struct {
	cols []scopeCol
	rows [][]Value
	tbl  *Table
}

// tableCols names a table's columns as a scope sees them under alias
// (lower-cased).
func tableCols(t *Table, alias string) []scopeCol {
	cols := make([]scopeCol, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = scopeCol{table: alias, name: strings.ToLower(c.Name)}
	}
	return cols
}

// evalFrom materialises a FROM source, keeping base-table provenance.
func (ev *evaluator) evalFrom(te TableExpr, outer *rowScope) (*fromSource, error) {
	switch t := te.(type) {
	case *TableName:
		key := strings.ToLower(t.Name)
		alias := strings.ToLower(t.Alias)
		if alias == "" {
			alias = key
		}
		if tbl, ok := ev.tables[key]; ok {
			return &fromSource{cols: tableCols(tbl, alias), rows: tbl.Rows, tbl: tbl}, nil
		}
		if view, ok := ev.views[key]; ok {
			res, err := ev.execSelect(view.Select, nil)
			if err != nil {
				return nil, fmt.Errorf("sqldb: view %s: %w", view.Name, err)
			}
			cols := make([]scopeCol, len(res.Columns))
			for i, name := range res.Columns {
				cols[i] = scopeCol{table: alias, name: strings.ToLower(name)}
			}
			return &fromSource{cols: cols, rows: res.Rows}, nil
		}
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, t.Name)

	case *JoinExpr:
		return ev.evalJoin(t, outer)
	}
	return nil, fmt.Errorf("sqldb: unsupported FROM clause %T", te)
}

func (ev *evaluator) evalJoin(j *JoinExpr, outer *rowScope) (*fromSource, error) {
	left, err := ev.evalFrom(j.Left, outer)
	if err != nil {
		return nil, err
	}
	right, err := ev.evalFrom(j.Right, outer)
	if err != nil {
		return nil, err
	}

	if j.Natural {
		return ev.evalNaturalJoin(left, right)
	}

	lcols, lrows := left.cols, left.rows
	rcols, rrows := right.cols, right.rows
	cols := append(append([]scopeCol{}, lcols...), rcols...)

	// Hash path: `a.x = b.y` conjuncts in ON become index probes into the
	// right side instead of an O(n·m) nested loop. The full ON predicate is
	// re-evaluated over each candidate pair, so the probe result only needs
	// to be a superset of the true matches.
	probeRight := ev.joinProber(j.On, left, right, outer)
	if probeRight != nil && len(lrows) > 0 && len(rrows) > 0 {
		// The nested loop evaluates ON for every pair, surfacing bad or
		// ambiguous column references; an index probe that comes back empty
		// would mask them, so validate ON eagerly on the hash path.
		if err := validateCols(j.On, cols, outer); err != nil {
			return nil, err
		}
	}

	var out [][]Value
	s := &rowScope{cols: cols, parent: outer}
	for _, lr := range lrows {
		emit := func(rr []Value) error {
			row := make([]Value, 0, len(lr)+len(rr))
			row = append(row, lr...)
			row = append(row, rr...)
			if j.On != nil {
				s.row = row
				v, err := ev.eval(j.On, s)
				if err != nil {
					return err
				}
				if truth, _ := v.Truth(); !truth {
					return nil
				}
			}
			out = append(out, row)
			return nil
		}
		if probeRight == nil {
			for _, rr := range rrows {
				if err := emit(rr); err != nil {
					return nil, err
				}
			}
			continue
		}
		candidates, err := probeRight(lr)
		if err != nil {
			return nil, err
		}
		for _, ri := range candidates {
			if err := emit(rrows[ri]); err != nil {
				return nil, err
			}
		}
	}
	return &fromSource{cols: cols, rows: out}, nil
}

// evalNaturalJoin joins on equality of all identically named columns; the
// shared columns appear once in the output (taken from the left side).
func (ev *evaluator) evalNaturalJoin(left, right *fromSource) (*fromSource, error) {
	lcols, lrows := left.cols, left.rows
	rcols, rrows := right.cols, right.rows
	type pair struct{ li, ri int }
	var common []pair
	rightDrop := make([]bool, len(rcols))
	for ri, rc := range rcols {
		for li, lc := range lcols {
			if lc.name == rc.name {
				common = append(common, pair{li, ri})
				rightDrop[ri] = true
				break
			}
		}
	}
	cols := append([]scopeCol{}, lcols...)
	for ri, rc := range rcols {
		if !rightDrop[ri] {
			cols = append(cols, rc)
		}
	}

	// Hash the right side on the common columns; candidates are re-checked
	// with CompareSQL, so probe hits only need to be a superset.
	liPos := make([]int, len(common))
	riPos := make([]int, len(common))
	for i, p := range common {
		liPos[i] = p.li
		riPos[i] = p.ri
	}
	probeRight := ev.naturalProber(liPos, riPos, right)

	var out [][]Value
	for _, lr := range lrows {
		emit := func(rr []Value) {
			for _, p := range common {
				cmp, known := CompareSQL(lr[p.li], rr[p.ri])
				if !known || cmp != 0 {
					return
				}
			}
			row := append([]Value{}, lr...)
			for ri, v := range rr {
				if !rightDrop[ri] {
					row = append(row, v)
				}
			}
			out = append(out, row)
		}
		if probeRight == nil {
			for _, rr := range rrows {
				emit(rr)
			}
			continue
		}
		for _, ri := range probeRight(lr) {
			emit(rrows[ri])
		}
	}
	return &fromSource{cols: cols, rows: out}, nil
}

// validateCols checks that every column reference in e (not descending into
// subqueries) resolves in the given scope columns or an outer scope.
func validateCols(e Expr, cols []scopeCol, outer *rowScope) error {
	switch x := e.(type) {
	case nil:
		return nil
	case *ColExpr:
		table := strings.ToLower(x.Table)
		name := strings.ToLower(x.Name)
		probe := &rowScope{cols: cols, parent: outer}
		for sc := probe; sc != nil; sc = sc.parent {
			idx, err := sc.lookup(table, name)
			if err != nil {
				return err
			}
			if idx >= 0 {
				return nil
			}
		}
		if x.Table != "" {
			return fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, x.Table, x.Name)
		}
		return fmt.Errorf("%w: %s", ErrNoSuchColumn, x.Name)
	case *Unary:
		return validateCols(x.X, cols, outer)
	case *Binary:
		if err := validateCols(x.L, cols, outer); err != nil {
			return err
		}
		return validateCols(x.R, cols, outer)
	case *FuncCall:
		return validateCols(x.Arg, cols, outer)
	case *IsNullExpr:
		return validateCols(x.X, cols, outer)
	case *InExpr:
		return validateCols(x.X, cols, outer)
	}
	return nil
}

// exprName synthesises a result column name for an unnamed expression,
// approximating SQLite's use of the expression text.
func exprName(e Expr) string {
	switch x := e.(type) {
	case *Literal:
		return x.Val.String()
	case *ColExpr:
		if x.Table != "" {
			return x.Table + "." + x.Name
		}
		return x.Name
	case *FuncCall:
		if x.Star {
			return x.Name + "(*)"
		}
		return x.Name + "(" + exprName(x.Arg) + ")"
	case *Binary:
		return exprName(x.L) + x.Op + exprName(x.R)
	case *Unary:
		return x.Op + exprName(x.X)
	case *SubqueryExpr:
		return "(subquery)"
	case *ParamExpr:
		return "?"
	}
	return "expr"
}
