package sqldb

import (
	"fmt"
	"math"
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
	// subqcache.go. nocache disables it for statements that mutate rows
	// they may re-read (UPDATE).
	subq    map[*SelectStmt]*subqInfo
	nocache bool
}

func (ev *evaluator) param(i int) (Value, error) {
	if i >= len(ev.params) {
		return Null(), fmt.Errorf("sqldb: missing parameter %d (have %d)", i+1, len(ev.params))
	}
	return ev.params[i], nil
}

// aggregate function names.
func isAggregateName(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "TOTAL", "GROUP_CONCAT":
		return true
	}
	return false
}

// hasAggregate reports whether the expression contains an aggregate call at
// this query level (subqueries own their aggregates).
func hasAggregate(e Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *FuncCall:
		if isAggregateName(x.Name) {
			return true
		}
		for _, a := range x.Args {
			if hasAggregate(a) {
				return true
			}
		}
	case *Unary:
		return hasAggregate(x.X)
	case *Binary:
		return hasAggregate(x.L) || hasAggregate(x.R)
	case *IsNullExpr:
		return hasAggregate(x.X)
	case *BetweenExpr:
		return hasAggregate(x.X) || hasAggregate(x.Lo) || hasAggregate(x.Hi)
	case *LikeExpr:
		return hasAggregate(x.X) || hasAggregate(x.Pattern)
	case *InExpr:
		if hasAggregate(x.X) {
			return true
		}
		for _, le := range x.List {
			if hasAggregate(le) {
				return true
			}
		}
	case *CaseExpr:
		if hasAggregate(x.Operand) || hasAggregate(x.Else) {
			return true
		}
		for _, w := range x.Whens {
			if hasAggregate(w.Cond) || hasAggregate(w.Result) {
				return true
			}
		}
	case *CastExpr:
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
			switch v.kind {
			case KindNull:
				return Null(), nil
			case KindFloat:
				return Float(-v.f), nil
			default:
				return Int(-v.Int64()), nil
			}
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
		return ev.evalFunc(x, s)

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

	case *BetweenExpr:
		v, err := ev.eval(x.X, s)
		if err != nil {
			return Null(), err
		}
		lo, err := ev.eval(x.Lo, s)
		if err != nil {
			return Null(), err
		}
		hi, err := ev.eval(x.Hi, s)
		if err != nil {
			return Null(), err
		}
		c1, ok1 := CompareSQL(v, lo)
		c2, ok2 := CompareSQL(v, hi)
		if !ok1 || !ok2 {
			return Null(), nil
		}
		return Bool(x.Not != (c1 >= 0 && c2 <= 0)), nil

	case *LikeExpr:
		v, err := ev.eval(x.X, s)
		if err != nil {
			return Null(), err
		}
		pat, err := ev.eval(x.Pattern, s)
		if err != nil {
			return Null(), err
		}
		if v.IsNull() || pat.IsNull() {
			return Null(), nil
		}
		return Bool(x.Not != likeMatch(pat.TextVal(), v.TextVal())), nil

	case *CaseExpr:
		if x.Operand != nil {
			op, err := ev.eval(x.Operand, s)
			if err != nil {
				return Null(), err
			}
			for _, w := range x.Whens {
				cv, err := ev.eval(w.Cond, s)
				if err != nil {
					return Null(), err
				}
				if cmp, ok := CompareSQL(op, cv); ok && cmp == 0 {
					return ev.eval(w.Result, s)
				}
			}
		} else {
			for _, w := range x.Whens {
				cv, err := ev.eval(w.Cond, s)
				if err != nil {
					return Null(), err
				}
				if truth, _ := cv.Truth(); truth {
					return ev.eval(w.Result, s)
				}
			}
		}
		if x.Else != nil {
			return ev.eval(x.Else, s)
		}
		return Null(), nil

	case *CastExpr:
		v, err := ev.eval(x.X, s)
		if err != nil {
			return Null(), err
		}
		return castValue(v, x.Type), nil
	}
	return Null(), fmt.Errorf("sqldb: cannot evaluate %T", e)
}

func castValue(v Value, t Kind) Value {
	if v.IsNull() {
		return v
	}
	switch t {
	case KindInt:
		return Int(v.Int64())
	case KindFloat:
		return Float(v.Float64())
	case KindText:
		return Text(v.TextVal())
	case KindBlob:
		if v.kind == KindBlob {
			return v
		}
		return Blob([]byte(v.TextVal()))
	}
	return v
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
	case "||":
		if lv.IsNull() || rv.IsNull() {
			return Null(), nil
		}
		return Text(lv.TextVal() + rv.TextVal()), nil
	case "+", "-", "*", "/", "%":
		if lv.IsNull() || rv.IsNull() {
			return Null(), nil
		}
		if lv.kind == KindFloat || rv.kind == KindFloat || x.Op == "/" && isDivFloat(lv, rv) {
			lf, rf := lv.Float64(), rv.Float64()
			switch x.Op {
			case "+":
				return Float(lf + rf), nil
			case "-":
				return Float(lf - rf), nil
			case "*":
				return Float(lf * rf), nil
			case "/":
				if rf == 0 {
					return Null(), nil
				}
				return Float(lf / rf), nil
			case "%":
				if rf == 0 {
					return Null(), nil
				}
				return Float(math.Mod(lf, rf)), nil
			}
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

// isDivFloat reports whether integer division would lose a remainder;
// SQLite keeps integer division, so this always returns false, but the hook
// keeps the semantics decision in one place.
func isDivFloat(_, _ Value) bool { return false }

func (ev *evaluator) evalIn(x *InExpr, s *rowScope) (Value, error) {
	v, err := ev.eval(x.X, s)
	if err != nil {
		return Null(), err
	}
	var found, sawNull bool
	if x.Select != nil {
		if found, sawNull, err = ev.inSubquery(v, x.Select, s); err != nil {
			return Null(), err
		}
	} else {
		for _, le := range x.List {
			cv, err := ev.eval(le, s)
			if err != nil {
				return Null(), err
			}
			if found = inMember(v, cv, &sawNull); found {
				break
			}
		}
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
		if e.in.exact(v) {
			return e.in.has(v), e.in.sawNull, nil
		}
	}
	for _, row := range res.Rows {
		if inMember(v, row[0], &sawNull) {
			return true, sawNull, nil
		}
	}
	return false, sawNull, nil
}

// evalFunc handles both scalar functions and (when the scope carries a
// group) aggregate functions.
func (ev *evaluator) evalFunc(x *FuncCall, s *rowScope) (Value, error) {
	if isAggregateName(x.Name) {
		return ev.evalAggregate(x, s)
	}
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := ev.eval(a, s)
		if err != nil {
			return Null(), err
		}
		args[i] = v
	}
	switch x.Name {
	case "LENGTH":
		if len(args) != 1 {
			return Null(), fmt.Errorf("sqldb: LENGTH takes 1 argument")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		if args[0].kind == KindBlob {
			return Int(int64(len(args[0].b))), nil
		}
		return Int(int64(len(args[0].TextVal()))), nil
	case "ABS":
		if len(args) != 1 {
			return Null(), fmt.Errorf("sqldb: ABS takes 1 argument")
		}
		v := args[0]
		switch v.kind {
		case KindNull:
			return Null(), nil
		case KindFloat:
			return Float(math.Abs(v.f)), nil
		default:
			n := v.Int64()
			if n < 0 {
				n = -n
			}
			return Int(n), nil
		}
	case "UPPER":
		if len(args) != 1 || args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.ToUpper(args[0].TextVal())), nil
	case "LOWER":
		if len(args) != 1 || args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.ToLower(args[0].TextVal())), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null(), nil
	case "IFNULL":
		if len(args) != 2 {
			return Null(), fmt.Errorf("sqldb: IFNULL takes 2 arguments")
		}
		if args[0].IsNull() {
			return args[1], nil
		}
		return args[0], nil
	case "NULLIF":
		if len(args) != 2 {
			return Null(), fmt.Errorf("sqldb: NULLIF takes 2 arguments")
		}
		if cmp, ok := CompareSQL(args[0], args[1]); ok && cmp == 0 {
			return Null(), nil
		}
		return args[0], nil
	case "SUBSTR":
		if len(args) < 2 || len(args) > 3 {
			return Null(), fmt.Errorf("sqldb: SUBSTR takes 2 or 3 arguments")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		str := args[0].TextVal()
		start := int(args[1].Int64())
		if start > 0 {
			start--
		} else if start < 0 {
			start = len(str) + start
			if start < 0 {
				start = 0
			}
		}
		if start > len(str) {
			return Text(""), nil
		}
		end := len(str)
		if len(args) == 3 {
			n := int(args[2].Int64())
			if n < 0 {
				n = 0
			}
			if start+n < end {
				end = start + n
			}
		}
		return Text(str[start:end]), nil
	case "MIN2", "MAX2":
		return Null(), fmt.Errorf("sqldb: unknown function %s", x.Name)
	}
	return Null(), fmt.Errorf("sqldb: unknown function %s", x.Name)
}

func (ev *evaluator) evalAggregate(x *FuncCall, s *rowScope) (Value, error) {
	// Find the nearest scope carrying a group.
	gs := s
	for gs != nil && !gs.grouped {
		gs = gs.parent
	}
	if gs == nil {
		return Null(), fmt.Errorf("sqldb: aggregate %s used outside aggregation", x.Name)
	}
	// Collect argument values over the group's rows.
	var vals []Value
	if x.Star {
		if x.Name != "COUNT" {
			return Null(), fmt.Errorf("sqldb: %s(*) is not valid", x.Name)
		}
		return Int(int64(len(gs.group))), nil
	}
	if len(x.Args) != 1 {
		return Null(), fmt.Errorf("sqldb: aggregate %s takes 1 argument", x.Name)
	}
	seen := map[string]bool{}
	for _, row := range gs.group {
		rowScope := &rowScope{cols: gs.cols, row: row, parent: gs.parent}
		v, err := ev.eval(x.Args[0], rowScope)
		if err != nil {
			return Null(), err
		}
		if v.IsNull() {
			continue
		}
		if x.Distinct {
			var sb strings.Builder
			v.groupKey(&sb)
			if seen[sb.String()] {
				continue
			}
			seen[sb.String()] = true
		}
		vals = append(vals, v)
	}
	switch x.Name {
	case "COUNT":
		return Int(int64(len(vals))), nil
	case "SUM":
		if len(vals) == 0 {
			return Null(), nil
		}
		return sumValues(vals), nil
	case "TOTAL":
		v := sumValues(vals)
		return Float(v.Float64()), nil
	case "AVG":
		if len(vals) == 0 {
			return Null(), nil
		}
		sum := sumValues(vals)
		return Float(sum.Float64() / float64(len(vals))), nil
	case "MIN":
		if len(vals) == 0 {
			return Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			if Compare(v, best) < 0 {
				best = v
			}
		}
		return best, nil
	case "MAX":
		if len(vals) == 0 {
			return Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			if Compare(v, best) > 0 {
				best = v
			}
		}
		return best, nil
	case "GROUP_CONCAT":
		if len(vals) == 0 {
			return Null(), nil
		}
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = v.TextVal()
		}
		return Text(strings.Join(parts, ",")), nil
	}
	return Null(), fmt.Errorf("sqldb: unknown aggregate %s", x.Name)
}

func sumValues(vals []Value) Value {
	allInt := true
	for _, v := range vals {
		if v.kind == KindFloat {
			allInt = false
			break
		}
	}
	if allInt {
		var sum int64
		for _, v := range vals {
			sum += v.Int64()
		}
		return Int(sum)
	}
	var sum float64
	for _, v := range vals {
		sum += v.Float64()
	}
	return Float(sum)
}

// likeMatch implements SQL LIKE with % and _ wildcards, case-insensitively
// for ASCII, as SQLite does.
func likeMatch(pattern, str string) bool {
	return likeRec(strings.ToLower(pattern), strings.ToLower(str))
}

func likeRec(p, t string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(t); i++ {
				if likeRec(p, t[i:]) {
					return true
				}
			}
			return false
		case '_':
			if len(t) == 0 {
				return false
			}
			p, t = p[1:], t[1:]
		default:
			if len(t) == 0 || p[0] != t[0] {
				return false
			}
			p, t = p[1:], t[1:]
		}
	}
	return len(t) == 0
}
