// Command benchmark is the repository's one end-to-end benchmark: four
// seeded workloads against the real LibSEAL stack, every metric printed by
// name with its unit, correctness gates on every run, and a traced mode that
// fills a per-layer table from timings taken at the seams between layers.
// README.md in this directory defines the workloads, metrics and the pinned
// deployment; BENCHMARK.json at the repository root is its contract.
//
//	go run ./benchmark --workload git_push --seed 1 --seconds 12 --trace 0
//	go run ./benchmark --workload git_push --seed 1 --seconds 12 --trace 1
//	go run ./benchmark -diff before.jsonl after.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// workloads maps a workload name to its runner. BENCHMARK.json records why
// each was chosen.
var workloads = map[string]func(*options) (*report, error){
	"git_push":    runRequests,
	"static_mix":  runRequests,
	"git_check":   runRequests,
	"verify_cold": runVerifyCold,
}

// options is one run's configuration. Only workload, seed, window and trace
// come from the command line; the rest is fixed in main and shrunk by tests.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	out      string

	machine machine
	workDir string // holds span files and, while running, runDir
	runDir  string // this run's audit directories; removed on exit
	setups  int    // set-ups per run; setup_s is their median
	// warmup is the closed-loop traffic that ends each request set-up.
	warmup time.Duration
	// verifyEntries is the size of the verify_cold set.
	verifyEntries int
}

// report is one run's full result. The last line of standard output is the
// four-key subset the driver reads; the rest goes to the -out file and, in
// words, to the lines before it.
type report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Machine  machine        `json:"machine"`
	Counts   map[string]int `json:"counts,omitempty"`
	Failures []string       `json:"failures,omitempty"`
	SpanFile string         `json:"span_file,omitempty"`
	// NotApplicable names the per-layer metrics this workload does not
	// exercise; they read 0 in Metrics.
	NotApplicable []string          `json:"not_applicable,omitempty"`
	Correct       bool              `json:"correct"`
	Attempted     int               `json:"attempted"`
	Failed        int               `json:"failed"`
	Metrics       map[string]metric `json:"metrics"`
}

func (o *options) newReport() *report {
	return &report{Workload: o.workload, Seed: o.seed, Seconds: o.window.Seconds(), Trace: o.trace, Machine: o.machine}
}

// harnessMetrics adds the per-layer readings every workload shares.
func (o *options) harnessMetrics(v map[string]float64) {
	v["harness.peak_rss_mb"] = peakRSSMB()
	v["harness.raw_fsync_ms"] = o.machine.RawFsyncMs
	v["harness.sleep_500us_ms"] = o.machine.Sleep500usMs
}

func (o *options) writeSpans(tr *tracer) (string, error) {
	path := filepath.Join(o.workDir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	return path, tr.writeSpans(path)
}

// setUpRepeatedly runs build o.setups times, each in a fresh directory of
// the run, and times each: setup_s is the median. Every result but the last
// is handed to discard; the last is kept for the measurement.
func setUpRepeatedly[T any](o *options, build func(dir string) (T, error), discard func(T) error) (kept T, seconds []float64, err error) {
	for i := 0; i < o.setups; i++ {
		dir := filepath.Join(o.runDir, fmt.Sprintf("setup-%d", i))
		if err = os.MkdirAll(dir, 0o755); err != nil {
			return kept, nil, err
		}
		start := time.Now()
		if kept, err = build(dir); err != nil {
			return kept, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		seconds = append(seconds, time.Since(start).Seconds())
		if i < o.setups-1 {
			if err = discard(kept); err != nil {
				return kept, nil, fmt.Errorf("set-up %d: discard: %w", i, err)
			}
		}
	}
	return kept, seconds, nil
}

// execute runs the workload inside a fresh run directory and applies the
// gates that are common to all workloads.
func (o *options) execute() (*report, error) {
	run, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if o.runDir, err = os.MkdirTemp(o.workDir, "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.runDir)
	if o.machine, err = describeMachine(o.runDir); err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	rep, err := run(o)
	if err != nil {
		return nil, err
	}
	if rep.Attempted < 1 {
		return nil, fmt.Errorf("nothing attempted")
	}
	rep.Correct = true
	return rep, nil
}

// print writes the human-readable table, then the driver's line.
func (rep *report) print(w io.Writer) error {
	m := rep.Machine
	fmt.Fprintf(w, "workload %s  seed %d  window %.1fs  trace %v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	fmt.Fprintf(w, "machine: nproc %d  GOMAXPROCS %d  %s  clients %d  bridge %s  audit fs %s  fsync %.3f ms  sleep(500us) %.3f ms\n",
		m.NProc, m.GOMAXPROCS, m.GoVersion, m.Clients, m.BridgeMode, m.AuditFS, m.RawFsyncMs, m.Sleep500usMs)
	fmt.Fprintf(w, "cost model: %+v\n", m.CostModel)
	if len(rep.Counts) > 0 {
		fmt.Fprintf(w, "counts: %v\n", rep.Counts) // fmt prints maps in key order
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "failure: %s\n", f)
	}
	if rep.SpanFile != "" {
		fmt.Fprintf(w, "spans written to %s\n", rep.SpanFile)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mt := rep.Metrics[name]
		switch {
		case mt.Value == missing:
			fmt.Fprintf(w, "  %-34s %14s %s\n", name, "missing", mt.Unit)
		case slices.Contains(rep.NotApplicable, name):
			fmt.Fprintf(w, "  %-34s %14s %s\n", name, "n/a", mt.Unit)
		default:
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", name, mt.Value, mt.Unit)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// appendTo appends the report as one JSON line, the format -diff reads.
func (rep *report) appendTo(path string) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gcBallastMB is the heap floor the harness holds for the whole run. The
// collector paces itself on the live heap, and the stack's is about 2 MiB:
// without a floor it runs every few dozen requests and its pacing, not the
// code, sets the numbers (static_mix read 5.2-8.3k requests/s run to run,
// and 16k in a traced run only because the span buffer was alive). The
// ballast is never touched, so it costs no resident memory.
const gcBallastMB = 16

func main() {
	ballast := make([]byte, gcBallastMB<<20)
	code := mainExit(os.Args[1:], os.Stdout, os.Stderr)
	runtime.KeepAlive(ballast)
	os.Exit(code)
}

func mainExit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{workDir: ".bench_work", setups: 3, warmup: 1500 * time.Millisecond, verifyEntries: 200_000}
	fs.StringVar(&o.workload, "workload", "", "git_push, static_mix, git_check or verify_cold")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 12, "length of the measurement window")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of end-to-end metrics")
	fs.StringVar(&o.out, "out", "", "append the full result (machine block, failures, metrics) to this JSON-lines file")
	diff := fs.Bool("diff", false, "compare two -out files: benchmark -diff a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *diff {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -diff a.jsonl b.jsonl")
			return 2
		}
		return runDiff("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	o.window = time.Duration(*seconds * float64(time.Second))
	o.trace = *trace != 0
	rep, err := o.execute()
	if err != nil {
		// A failed gate prints no metric at all.
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", o.workload, err)
		return 1
	}
	if o.out != "" {
		if err := rep.appendTo(o.out); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if err := rep.print(stdout); err != nil {
		return 1
	}
	return 0
}
