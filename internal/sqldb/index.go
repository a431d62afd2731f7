package sqldb

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Hash indexes.
//
// Invariant checks are equality-heavy: the paper's Git soundness query
// probes `updates` by (repo, branch) once per advertisement, and the
// completeness view joins advertisements to updates on repo. Evaluated
// naively both are nested-loop scans, O(n·m) per check. A hash index maps
// the group-key of an equality-column tuple to the ascending row positions
// holding it, turning each probe into O(matches).
//
// Indexes are built lazily on first use by the planner and live on the
// table (tableIndexes). Maintenance rules:
//
//   - INSERT extends an index incrementally: positions are stable, so the
//     next lookup indexes only the appended suffix (hashIndex.n tracks
//     coverage).
//   - DELETE (and RemoveLastRows) shift or truncate positions, so they
//     bump the table version, invalidating every index; the next lookup
//     rebuilds from scratch.
//
// Concurrency: every live-table evaluation holds db.mu (shared for reads,
// exclusive for writes), so rows cannot change during a read-locked query.
// tableIndexes.mu serialises concurrent read-locked builders; once ensure
// returns, the returned hashIndex is immutable until a writer (excluded by
// the read lock) changes the table, so probing needs no lock. Snapshots
// never share a live table's indexes — each snapshot carries fresh
// tableIndexes probed by a single check at a time — so index state never
// crosses the live/snapshot boundary.

// Index keys are Value.groupKey renderings. They must agree with Compare:
// two tuples get the same key iff Compare ranks every pair of components
// equal. groupKey already guarantees that for everything except floats at
// magnitudes where its integral-float normalisation cuts off (|v| >= 1e18);
// rows holding such values are kept in the index's unsafe list and returned
// from every probe, so the candidate set remains a superset of the true
// matches. (The planner's residual predicate re-evaluation makes the final
// result exact either way.)

// unsafeIndexValue reports whether a value's groupKey may disagree with
// Compare-equality against a differently-typed peer.
func unsafeIndexValue(v Value) bool {
	return v.kind == KindFloat && (math.Abs(v.f) >= 1e18 || math.IsInf(v.f, 0))
}

// hashIndex is one equality index over a fixed column tuple.
type hashIndex struct {
	cols    []int            // table column positions, ascending
	version uint64           // tableIndexes.version at build time
	n       int              // rows covered (extension watermark)
	m       map[string][]int // key -> ascending row positions
	unsafe  []int            // positions whose key may disagree with Compare
}

// add indexes one row at position pos.
func (h *hashIndex) add(pos int, row []Value) {
	var sb strings.Builder
	ok := true
	for _, ci := range h.cols {
		v := row[ci]
		if unsafeIndexValue(v) {
			ok = false
			break
		}
		v.groupKey(&sb)
	}
	if !ok {
		h.unsafe = append(h.unsafe, pos)
		return
	}
	k := sb.String()
	h.m[k] = append(h.m[k], pos)
}

// probe returns the candidate positions for the given values, merged with
// the unsafe list (ascending). all=true means the caller must scan every
// row (the probe itself was unsafe). A NULL probe value matches nothing:
// equality with NULL is never true, and unsafe rows cannot compare equal to
// NULL either, so even they are excluded.
func (h *hashIndex) probe(vals []Value) (pos []int, all bool) {
	var sb strings.Builder
	for _, v := range vals {
		if v.IsNull() {
			return nil, false
		}
		if unsafeIndexValue(v) {
			return nil, true
		}
		v.groupKey(&sb)
	}
	hit := h.m[sb.String()]
	if len(h.unsafe) == 0 {
		return hit, false
	}
	return mergeAscending(hit, h.unsafe), false
}

// mergeAscending merges two ascending position lists into a fresh slice.
func mergeAscending(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// tableIndexes is the per-table index registry.
type tableIndexes struct {
	mu      sync.Mutex
	version uint64 // bumped by position-invalidating mutations
	bySig   map[string]*hashIndex
}

func newTableIndexes() *tableIndexes { return &tableIndexes{bySig: make(map[string]*hashIndex)} }

// colSig canonicalises a column set: ascending positions, comma-joined.
func colSig(cols []int) string {
	var sb strings.Builder
	for i, c := range cols {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(c))
	}
	return sb.String()
}

// ensure returns an index over cols covering exactly the given rows,
// building or extending it as needed. cols must be sorted ascending. The
// returned index is safe to probe without a lock as long as the caller's
// view of the table cannot change (read-locked live table or snapshot).
func (ix *tableIndexes) ensure(rows [][]Value, cols []int) *hashIndex {
	sig := colSig(cols)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	h := ix.bySig[sig]
	if h == nil || h.version != ix.version || h.n > len(rows) {
		h = &hashIndex{cols: cols, version: ix.version, m: make(map[string][]int)}
		ix.bySig[sig] = h
	}
	for ; h.n < len(rows); h.n++ {
		h.add(h.n, rows[h.n])
	}
	return h
}

// invalidateAll drops every index (positions shifted: DELETE, truncation,
// trim rewrite).
func (ix *tableIndexes) invalidateAll() {
	ix.mu.Lock()
	ix.version++
	ix.bySig = make(map[string]*hashIndex)
	ix.mu.Unlock()
}

// buildTransient builds a one-shot hash map over derived rows (a view's or a
// join's output) that have no table to hang a persistent index on.
func buildTransient(rows [][]Value, cols []int) *hashIndex {
	h := &hashIndex{cols: cols, m: make(map[string][]int)}
	for i, row := range rows {
		h.add(i, row)
	}
	h.n = len(rows)
	return h
}

// equiCols sorts the column positions of an equality predicate set into the
// canonical ascending order and applies the same permutation to the probe
// expressions, so (colIdx, probe) pairs stay aligned with the index
// signature.
func sortEqui(cols []int, probes []Expr) ([]int, []Expr) {
	type pair struct {
		c int
		e Expr
	}
	ps := make([]pair, len(cols))
	for i := range cols {
		ps[i] = pair{cols[i], probes[i]}
	}
	sort.SliceStable(ps, func(a, b int) bool { return ps[a].c < ps[b].c })
	outC := make([]int, len(ps))
	outE := make([]Expr, len(ps))
	for i, p := range ps {
		outC[i] = p.c
		outE[i] = p.e
	}
	return outC, outE
}
