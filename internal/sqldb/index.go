package sqldb

import (
	"slices"
	"sort"
	"strconv"
	"sync"
)

// Hash indexes.
//
// Invariant checks are equality-heavy: the paper's Git soundness query
// probes `updates` by (repo, branch) once per advertisement, and the
// completeness view joins advertisements to updates on repo. Evaluated
// naively both are nested-loop scans, O(n·m) per check. A hash index maps
// the key of an equality-column tuple to the ascending row positions
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

// Index keys are Value.appendKey encodings, which agree with Compare: two
// tuples get the same key iff Compare ranks every pair of components equal.

// hashIndex is one equality index over a fixed column tuple.
type hashIndex struct {
	cols    []int          // table column positions, ascending
	version uint64         // tableIndexes.version at build time
	n       int            // rows covered (extension watermark)
	m       map[string]int // key -> its entry in lists
	lists   [][]int        // ascending row positions, one list per key
}

// extend indexes rows[h.n:]. Their keys share one arena (keyIDs), and the
// position lists of keys first seen here are cut from one array, so building
// an index allocates per call, not per row or per key.
func (h *hashIndex) extend(rows [][]Value) {
	var arena []byte
	ids := make([]int, len(rows)-h.n)
	for i, row := range rows[h.n:] {
		for _, ci := range h.cols {
			arena = row[ci].appendKey(arena)
		}
		ids[i] = len(arena)
	}
	fresh := len(h.lists)
	keyIDs(h.m, arena, ids)
	sizes := make([]int, len(h.m)-fresh)
	total := 0
	for _, id := range ids {
		if id >= fresh {
			sizes[id-fresh]++
			total++
		}
	}
	all := make([]int, total)
	h.lists = slices.Grow(h.lists, len(sizes))
	for _, n := range sizes {
		h.lists = append(h.lists, all[:0:n])
		all = all[n:]
	}
	for i, id := range ids {
		h.lists[id] = append(h.lists[id], h.n+i)
	}
	h.n = len(rows)
}

// keyIDs numbers the keys laid end to end in arena — key i ends at ends[i] —
// registering each one not yet in m under the next free number; ends is
// overwritten with the numbers. The arena becomes one string and every new
// map key a substring of it: one allocation for all of them, where converting
// each key would cost one apiece.
func keyIDs(m map[string]int, arena []byte, ends []int) {
	keys := string(arena)
	start := 0
	for i, end := range ends {
		k := keys[start:end]
		start = end
		id, ok := m[k]
		if !ok {
			id = len(m)
			m[k] = id
		}
		ends[i] = id
	}
}

// probe returns the ascending positions of the rows whose key columns equal
// vals. A NULL probe value matches nothing: equality with NULL is never true.
func (h *hashIndex) probe(vals []Value) []int {
	var arr [64]byte
	key := arr[:0]
	for _, v := range vals {
		if v.IsNull() {
			return nil
		}
		key = v.appendKey(key)
	}
	if i, ok := h.m[string(key)]; ok {
		return h.lists[i]
	}
	return nil
}

// tableIndexes is the per-table index registry.
type tableIndexes struct {
	mu      sync.Mutex
	version uint64 // bumped by position-invalidating mutations
	bySig   map[string]*hashIndex
}

func newTableIndexes() *tableIndexes { return &tableIndexes{bySig: make(map[string]*hashIndex)} }

// appendColSig appends a column set's canonical name: ascending positions,
// comma-joined.
func appendColSig(buf []byte, cols []int) []byte {
	for i, c := range cols {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(c), 10)
	}
	return buf
}

// ensure returns an index over cols covering exactly the given rows,
// building or extending it as needed. cols must be sorted ascending. The
// returned index is safe to probe without a lock as long as the caller's
// view of the table cannot change (read-locked live table or snapshot).
func (ix *tableIndexes) ensure(rows [][]Value, cols []int) *hashIndex {
	var arr [32]byte
	sig := appendColSig(arr[:0], cols)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	h := ix.bySig[string(sig)]
	if h == nil || h.version != ix.version || h.n > len(rows) {
		h = &hashIndex{cols: cols, version: ix.version, m: make(map[string]int, len(rows))}
		ix.bySig[string(sig)] = h
	}
	if h.n < len(rows) {
		h.extend(rows)
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
	h := &hashIndex{cols: cols, m: make(map[string]int, len(rows))}
	h.extend(rows)
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
