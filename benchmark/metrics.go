package main

import (
	"math"
	"sort"
	"time"
)

// missing is the value of a per-layer metric whose telemetry event or seam
// was expected on this workload but never fired (the event was renamed or
// removed). It is never reported as zero, and it never fails the run. No
// real measurement here is negative.
const missing = -1.0

// metricDef names one metric and its unit. The two tables below must list
// exactly the metrics of BENCHMARK.json (TestRunsPrintTheContract checks it).
type metricDef struct {
	name, unit string
}

// endToEnd is reported by every workload with --trace 0.
//
//   - throughput_per_s: operations per second, median over six equal
//     sub-windows (request workloads: acknowledged requests; verify_cold:
//     verified entries, median over iterations).
//   - op_p50_ms: median latency of the workload's operation (git_push and
//     git_check: every request; static_mix: the 1 KiB GET; verify_cold: one
//     cold Verify of the whole set).
//   - setup_s: median of the set-ups of one run.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"setup_s", "s"},
}

// perLayer is reported by every workload with --trace 1. A metric that does
// not apply to a workload (README.md has the table) reads 0 there.
var perLayer = []metricDef{
	{"client.small_p50_ms", "ms"},
	{"client.large_p50_ms", "ms"},
	{"client.reconnect_p50_ms", "ms"},
	{"client.check_p50_ms", "ms"},
	{"tlsterm.accept_ms", "ms"},
	{"tlsterm.write_us_per_req", "us"},
	{"tlsterm.write_calls_per_req", "count"},
	{"tlsterm.bytes_out_per_req", "B"},
	{"enclave.ecalls_per_req", "count"},
	{"enclave.ocalls_per_req", "count"},
	{"enclave.transitions_per_req", "count"},
	{"enclave.transition_us_per_req", "us"},
	{"httpparse.consume_us_per_req", "us"},
	{"ssm.handle_pair_us", "us"},
	{"ssm.tuples_per_req", "count"},
	{"core.pairs", "count"},
	{"core.checks", "count"},
	{"core.trims", "count"},
	{"core.check_cycle_ms", "ms"},
	{"sqldb.invariant_ms", "ms"},
	{"sqldb.rows_retained", "count"},
	{"audit.append_ms", "ms"},
	{"audit.batch_entries_mean", "count"},
	{"audit.busiest_shard_share", "%"},
	{"audit.residual_ms_per_req", "ms"},
	{"audit.trim_ms", "ms"},
	{"audit.manifests", "count"},
	{"audit.log_bytes_per_req", "B"},
	{"rote.increment_ms", "ms"},
	{"rote.increments_per_req", "count"},
	{"rote.reads", "count"},
	{"vfs.sync_ms", "ms"},
	{"vfs.syncs_per_req", "count"},
	{"vfs.writes_per_req", "count"},
	{"vfs.write_bytes_per_req", "B"},
	{"vfs.rewrite_bytes_per_trim", "B"},
	{"vfs.renames", "count"},
	{"services.handle_us_per_req", "us"},
	{"verify.cold_ms", "ms"},
	{"verify.mb_per_s", "MB/s"},
	{"verify.entries", "count"},
	{"verify.batches", "count"},
	{"verify.workers", "count"},
	{"verify.workers1_entries_per_s", "1/s"},
	{"verify.resume_ms", "ms"},
	{"verify.postrun_entries_per_s", "1/s"},
	{"harness.req_p99_ms", "ms"},
	{"harness.req_p99_samples", "count"},
	{"harness.cpu_us_per_op", "us"},
	{"harness.alloc_bytes_per_op", "B"},
	{"harness.allocs_per_op", "count"},
	{"harness.peak_rss_mb", "MB"},
	{"harness.raw_fsync_ms", "ms"},
	{"harness.sleep_500us_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill sets the report's metrics from measured values: every name of defs is
// present, and a name without a measurement reads 0 and is listed as not
// applicable to the workload.
func (rep *report) fill(defs []metricDef, values map[string]float64) {
	rep.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			rep.NotApplicable = append(rep.NotApplicable, d.name)
		}
		rep.Metrics[d.name] = metric{v, d.unit}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile of sorted values by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quartileSpread is (Q3-Q1)/median with the quartiles of Python's
// statistics.quantiles(values, n=4), which the driver uses.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (cut(3) - cut(1)) / math.Abs(med)
}
