package sqldb

import (
	"sort"
	"strings"
)

// Index-aware planning (see index.go for the index structures).
//
// Two access paths are planned here, both exact because the full predicate
// is always re-evaluated over the candidates the index returns:
//
//   - indexFilter: a single-table SELECT whose WHERE carries `col = expr`
//     conjuncts, where expr does not depend on the scanned row (a literal,
//     a parameter, or a correlated outer reference). This is the shape of
//     LibSEAL's soundness subqueries — probed once per outer row.
//   - joinProber / naturalProber: `a.x = b.y` ON conjuncts and NATURAL
//     JOIN common columns become hash probes into the right side.

// indexMinRows is the smallest row set worth probing; below it a scan is
// as cheap as hashing the probe key.
const indexMinRows = 2

// splitConjuncts flattens a top-level AND tree.
func splitConjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// rowIndependent reports whether e can be evaluated without a row of the
// given scope: it is a literal, a parameter, or a column reference that
// does not resolve in that scope (so it binds in an enclosing query).
func rowIndependent(e Expr, local *rowScope) bool {
	switch x := e.(type) {
	case *Literal, *ParamExpr:
		return true
	case *ColExpr:
		idx, err := local.lookup(strings.ToLower(x.Table), strings.ToLower(x.Name))
		return err == nil && idx < 0
	}
	return false
}

// indexFilter plans an equality probe for a single-base-table WHERE. It
// returns (candidates, true, nil) when an index was used; the candidate
// rows are in storage order and form a superset of the rows satisfying the
// WHERE, which the caller still evaluates in full.
func (ev *evaluator) indexFilter(src *fromSource, where Expr, outer *rowScope) ([][]Value, bool, error) {
	if !ev.indexing || src == nil || src.tbl == nil || src.tbl.idx == nil || len(src.rows) < indexMinRows {
		return nil, false, nil
	}
	local := &rowScope{cols: src.cols}
	var cols []int
	var probes []Expr
	seen := map[int]bool{}
	for _, c := range splitConjuncts(where) {
		b, ok := c.(*Binary)
		if !ok || b.Op != "=" {
			continue
		}
		for _, side := range [2][2]Expr{{b.L, b.R}, {b.R, b.L}} {
			ce, ok := side[0].(*ColExpr)
			if !ok {
				continue
			}
			ci, err := local.lookup(strings.ToLower(ce.Table), strings.ToLower(ce.Name))
			if err != nil || ci < 0 {
				continue
			}
			if !rowIndependent(side[1], local) {
				continue
			}
			if !seen[ci] {
				seen[ci] = true
				cols = append(cols, ci)
				probes = append(probes, side[1])
			}
			break
		}
	}
	if len(cols) == 0 {
		return nil, false, nil
	}
	cols, probes = sortEqui(cols, probes)
	vals := make([]Value, len(probes))
	for i, e := range probes {
		v, err := ev.eval(e, outer)
		if err != nil {
			return nil, false, err
		}
		vals[i] = v
	}
	pos := src.tbl.idx.ensure(src.rows, cols).probe(vals)
	cand := make([][]Value, len(pos))
	for i, p := range pos {
		cand[i] = src.rows[p]
	}
	return cand, true, nil
}

// joinProber plans the hash path for an ON clause. The returned function
// maps a left row to candidate right-row positions; it is nil when no
// equality conjunct was planned, and the caller scans the right side.
func (ev *evaluator) joinProber(on Expr, left, right *fromSource, outer *rowScope) func(lr []Value) ([]int, error) {
	if !ev.indexing || on == nil || len(right.rows) < indexMinRows {
		return nil
	}
	lscope := &rowScope{cols: left.cols}
	rscope := &rowScope{cols: right.cols}
	var rcols []int
	var probes []Expr
	seen := map[int]bool{}
	for _, c := range splitConjuncts(on) {
		b, ok := c.(*Binary)
		if !ok || b.Op != "=" {
			continue
		}
		for _, side := range [2][2]Expr{{b.L, b.R}, {b.R, b.L}} {
			ce, ok := side[0].(*ColExpr)
			if !ok {
				continue
			}
			ri, err := rscope.lookup(strings.ToLower(ce.Table), strings.ToLower(ce.Name))
			if err != nil || ri < 0 {
				continue
			}
			// An unqualified name visible on both sides is ambiguous in the
			// combined scope; leave it to the residual evaluation to report.
			if li, err := lscope.lookup(strings.ToLower(ce.Table), strings.ToLower(ce.Name)); err != nil || li >= 0 {
				continue
			}
			// The probe side must not depend on the right row: it may bind
			// in the left scope or any enclosing query.
			if !rowIndependent(side[1], rscope) {
				continue
			}
			if !seen[ri] {
				seen[ri] = true
				rcols = append(rcols, ri)
				probes = append(probes, side[1])
			}
			break
		}
	}
	if len(rcols) == 0 {
		return nil
	}
	rcols, probes = sortEqui(rcols, probes)
	var h *hashIndex
	if right.tbl != nil && right.tbl.idx != nil {
		h = right.tbl.idx.ensure(right.rows, rcols)
	} else {
		h = buildTransient(right.rows, rcols)
	}
	return func(lr []Value) ([]int, error) {
		s := &rowScope{cols: left.cols, row: lr, parent: outer}
		vals := make([]Value, len(probes))
		for i, e := range probes {
			v, err := ev.eval(e, s)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return h.probe(vals), nil
	}
}

// naturalProber plans the hash path for a NATURAL JOIN's common columns:
// liPos/riPos are the aligned left/right positions of the shared columns.
// It is nil when there is nothing to hash, and the caller scans.
func (ev *evaluator) naturalProber(liPos, riPos []int, right *fromSource) func(lr []Value) []int {
	if !ev.indexing || len(riPos) == 0 || len(right.rows) < indexMinRows {
		return nil
	}
	// Canonicalise to ascending right positions, permuting liPos alongside.
	ord := make([]int, len(riPos))
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(a, b int) bool { return riPos[ord[a]] < riPos[ord[b]] })
	rc := make([]int, len(ord))
	lc := make([]int, len(ord))
	for i, o := range ord {
		rc[i] = riPos[o]
		lc[i] = liPos[o]
	}
	var h *hashIndex
	if right.tbl != nil && right.tbl.idx != nil {
		h = right.tbl.idx.ensure(right.rows, rc)
	} else {
		h = buildTransient(right.rows, rc)
	}
	return func(lr []Value) []int {
		vals := make([]Value, len(lc))
		for i, li := range lc {
			vals[i] = lr[li]
		}
		return h.probe(vals)
	}
}
