// Package telemetry is LibSEAL's measurement substrate: a stdlib-only,
// allocation-light metrics layer used by every hot path of the system. The
// paper's evaluation (§6) is entirely about measured costs — enclave
// transition counts, audit append/check latency, ROTE quorum round-trips —
// and this package makes those observable as first-class instrumentation
// instead of one-off timers.
//
// Three metric kinds are provided, all safe for concurrent use and free of
// allocation on the update path:
//
//   - Counter: a monotonically increasing atomic int64 (events, bytes).
//   - Gauge: an instantaneous atomic int64 (queue depth, chain length).
//   - Histogram: a fixed-bucket latency distribution (log-spaced buckets,
//     four sub-buckets per power of two, ≤12.5% quantile error) reporting
//     count, sum, min, max and p50/p95/p99.
//
// Metrics register under a process-global registry at package init time;
// Snapshot returns a deterministic (name-sorted) copy used both by the
// /metrics HTTP endpoint and by the machine-readable bench pipeline.
// SetEnabled(false) turns every update into a single atomic load, so the
// instrumented binary can measure its own observation overhead.
package telemetry

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates every metric update. Defaults to on.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns metric recording on or off process-wide. Disabling
// reduces every update to one atomic load, which is how the bench pipeline
// measures the instrumentation's own overhead.
func SetEnabled(on bool) { enabled.Store(on) }

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (no-op while telemetry is disabled).
func (c *Counter) Add(n int64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is an instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value (no-op while telemetry is disabled).
func (g *Gauge) Set(v int64) {
	if enabled.Load() {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta. Paired increments and decrements (e.g.
// queue enter/leave) keep it consistent.
func (g *Gauge) Add(delta int64) {
	if enabled.Load() {
		g.v.Add(delta)
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) reset() { g.v.Store(0) }

// Histogram bucket geometry: values below histSubs land in exact unit
// buckets; above, each power of two splits into histSubs log-linear
// sub-buckets (HDR-style), bounding quantile error at 1/(2*histSubs).
const (
	histSubBits = 2
	histSubs    = 1 << histSubBits // 4 sub-buckets per octave
	histBuckets = 64 * histSubs    // covers the whole non-negative int64 range
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < histSubs {
		return int(u)
	}
	exp := bits.Len64(u) - 1
	sub := (u >> (uint(exp) - histSubBits)) & (histSubs - 1)
	return (exp-histSubBits+1)*histSubs + int(sub)
}

// bucketLower returns the smallest value mapping to bucket i.
func bucketLower(i int) int64 {
	if i < histSubs {
		return int64(i)
	}
	exp := i>>histSubBits + histSubBits - 1
	rem := int64(i & (histSubs - 1))
	return int64(1)<<uint(exp) + rem<<uint(exp-histSubBits)
}

// bucketMid returns the representative (midpoint) value of bucket i.
func bucketMid(i int) int64 {
	lo := bucketLower(i)
	if i+1 >= histBuckets {
		return lo
	}
	hi := bucketLower(i + 1)
	if hi <= lo { // int64 overflow in the very last octave
		return lo
	}
	return lo + (hi-lo)/2
}

// Histogram is a fixed-bucket distribution of durations in nanoseconds.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // math.MaxInt64 while empty
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

const histEmptyMin = int64(^uint64(0) >> 1) // math.MaxInt64

// Observe records one duration (no-op while telemetry is disabled).
// Negative durations are clamped to zero.
func (h *Histogram) Observe(d time.Duration) {
	if !enabled.Load() {
		return
	}
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile returns the q-th quantile (0 < q <= 1) as a duration, estimated
// from the bucket midpoints. It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total <= 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return time.Duration(bucketMid(i))
		}
	}
	return time.Duration(h.max.Load())
}

func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(histEmptyMin)
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Metric is one entry of a registry snapshot. Value carries the counter or
// gauge reading; for histograms it carries the observation count and the
// distribution fields are populated.
type Metric struct {
	Name string `json:"name"`
	Type string `json:"type"` // "counter", "gauge" or "histogram"
	Unit string `json:"unit"` // "calls", "bytes", "ns", ...
	// Value is the counter/gauge reading, or the histogram count.
	Value int64 `json:"value"`
	// Histogram-only fields (nanoseconds).
	Sum  int64   `json:"sum,omitempty"`
	Mean float64 `json:"mean,omitempty"`
	Min  int64   `json:"min,omitempty"`
	Max  int64   `json:"max,omitempty"`
	P50  int64   `json:"p50,omitempty"`
	P95  int64   `json:"p95,omitempty"`
	P99  int64   `json:"p99,omitempty"`
}

// registered is one named metric in the registry.
type registered struct {
	name string
	unit string
	m    any // *Counter, *Gauge or *Histogram
}

var registry = struct {
	mu     sync.Mutex
	byName map[string]*registered
}{byName: make(map[string]*registered)}

// register installs (or retrieves) a named metric. Registration is
// idempotent: asking for the same name returns the existing metric; asking
// for the same name with a different kind panics — that is a programming
// error, two subsystems fighting over one name.
func register[T any](name, unit string, mk func() *T) *T {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if r, ok := registry.byName[name]; ok {
		m, ok := r.m.(*T)
		if !ok {
			panic("telemetry: metric " + name + " re-registered with a different type")
		}
		return m
	}
	m := mk()
	registry.byName[name] = &registered{name: name, unit: unit, m: m}
	return m
}

// NewCounter registers (or retrieves) the named counter.
func NewCounter(name, unit string) *Counter {
	return register(name, unit, func() *Counter { return &Counter{} })
}

// NewGauge registers (or retrieves) the named gauge.
func NewGauge(name, unit string) *Gauge {
	return register(name, unit, func() *Gauge { return &Gauge{} })
}

// NewHistogram registers (or retrieves) the named histogram. The unit
// applies to the recorded values and is "ns" for every latency histogram.
func NewHistogram(name, unit string) *Histogram {
	return register(name, unit, func() *Histogram {
		h := &Histogram{}
		h.min.Store(histEmptyMin)
		return h
	})
}

// snapshotOne renders one registered metric.
func (r *registered) snapshot() Metric {
	out := Metric{Name: r.name, Unit: r.unit}
	switch m := r.m.(type) {
	case *Counter:
		out.Type = "counter"
		out.Value = m.Value()
	case *Gauge:
		out.Type = "gauge"
		out.Value = m.Value()
	case *Histogram:
		out.Type = "histogram"
		out.Value = m.count.Load()
		out.Sum = m.sum.Load()
		if out.Value > 0 {
			out.Mean = float64(out.Sum) / float64(out.Value)
			out.Min = m.min.Load()
			out.Max = m.max.Load()
			out.P50 = int64(m.Quantile(0.50))
			out.P95 = int64(m.Quantile(0.95))
			out.P99 = int64(m.Quantile(0.99))
		}
	}
	return out
}

// Snapshot returns a copy of every registered metric, sorted by name so the
// output is deterministic for a given sequence of updates.
func Snapshot() []Metric {
	registry.mu.Lock()
	regs := make([]*registered, 0, len(registry.byName))
	for _, r := range registry.byName {
		regs = append(regs, r)
	}
	registry.mu.Unlock()
	sort.Slice(regs, func(i, j int) bool { return regs[i].name < regs[j].name })
	out := make([]Metric, len(regs))
	for i, r := range regs {
		out[i] = r.snapshot()
	}
	return out
}

// Get returns the snapshot of one metric by name.
func Get(name string) (Metric, bool) {
	registry.mu.Lock()
	r, ok := registry.byName[name]
	registry.mu.Unlock()
	if !ok {
		return Metric{}, false
	}
	return r.snapshot(), true
}

// Reset zeroes every registered metric (used between benchmark phases).
// Registrations themselves are kept.
func Reset() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, r := range registry.byName {
		switch m := r.m.(type) {
		case *Counter:
			m.reset()
		case *Gauge:
			m.reset()
		case *Histogram:
			m.reset()
		}
	}
}
