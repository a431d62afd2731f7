package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"libseal"
	"libseal/internal/asyncall"
	"libseal/internal/bench"
	"libseal/internal/enclave"
	"libseal/internal/httpparse"
	"libseal/internal/services/messaging"
	"libseal/internal/services/owncloud"
	"libseal/internal/ssm/dropboxssm"
	"libseal/internal/ssm/messagingssm"
	"libseal/internal/ssm/owncloudssm"
	"libseal/internal/telemetry"
	"libseal/internal/testutil"
	"libseal/internal/tlsterm"
)

// experiments is everything the tool can run: the paper's evaluation in the
// paper's order, then the sweeps of the layers added since (sweeps.go).
var experiments = []experiment{
	{"table1", "Table 1: lines of code and enclave interface",
		[]string{"loc", "tcb_loc", "ecalls", "ocalls", "seals"}, runTable1},
	{"fig5a", "Figure 5a: Git throughput and latency",
		[]string{"throughput_rps", "latency_mean_ms", "latency_p95_ms", "vs_native_pct", "verified_entries"}, runFig5a},
	{"fig5b", "Figure 5b: ownCloud throughput and latency",
		[]string{"throughput_rps", "latency_mean_ms", "vs_native_pct", "verified_entries"}, runFig5b},
	{"fig5c", "Figure 5c: Dropbox latency",
		[]string{"commit_batch_ms", "list_ms"}, runFig5c},
	{"fig6", "Figure 6: invariant checking and trimming time per request (the minimum marks the optimal interval)",
		[]string{"check_trim_us_per_req"}, runFig6},
	{"fig7a", "Figure 7a: Apache throughput and overhead vs content size",
		[]string{"throughput_rps", "overhead_pct"}, runFig7a},
	{"fig7b", "Figure 7b: Squid throughput versus latency",
		[]string{"throughput_rps", "latency_mean_ms"}, runFig7b},
	{"fig7c", "Figure 7c: multi-core scalability (the paper used 4 cores; scaling flattens at the physical core count)",
		[]string{"throughput_rps"}, runFig7c},
	{"table2", "Table 2: throughput with asynchronous enclave calls (paper: +57% to +114%; contention-driven gains need several physical cores)",
		[]string{"throughput_rps", "improvement_pct"}, runTable2},
	{"table3", "Table 3: varying the number of SGX threads",
		[]string{"throughput_rps", "latency_mean_ms"}, runTable3},
	{"table4", "Table 4: varying the number of lthread tasks",
		[]string{"throughput_rps", "latency_mean_ms"}, runTable4},
	{"sec42", "Section 4.2: transition-reduction optimisations",
		[]string{"ecalls_per_req", "ocalls_per_req", "throughput_rps"}, runSec42},
	{"sec65", "Section 6.5: log size per retained unit",
		[]string{"bytes_per_unit", "tuples"}, runSec65},
	{"sec68", "Section 6.8: enclave transition cost vs threads (paper: 8,500 cycles at 1 thread, 170,000 at 48 — 20x)",
		[]string{"wall_us_per_ecall"}, runSec68},
	{"detect", "Section 6.2: attack detection across all services",
		[]string{"detected"}, runDetect},
	{"groupcommit", "Group commit: batching off/on x sync/async bridge x 1/4/16 clients, audited Git on disk",
		[]string{"throughput_rps", "append_p95_ms", "fsyncs_per_req", "signatures_per_req", "increments_per_req", "batch_size_mean", "verified_entries"}, runGroupCommit},
	{"shards", "Sharded append: 1/2/4/8 audit-log shards under 16 clients and a 500us counter quorum",
		[]string{"elapsed_s", "entries_per_s", "verify_s", "verified_entries", "manifests", "epoch", "counter_wait_late_p50_us", "counter_wait_late_p99_us"}, runShards},
	{"checks", "Snapshot checks: full-check latency scan vs indexed, and audited append without/with check+trim cycles",
		[]string{"check_ms", "violations", "throughput_rps", "append_p95_ms", "checks", "trims", "verified_entries"}, runChecks},
	{"mirror", "Live mirror: append throughput without/with one mirror, and rollback detection latency",
		[]string{"elapsed_s", "entries_per_s", "catchup_ms", "mirror_verified_entries", "detect_ms", "is_rollback_verdict"}, runMirror},
}

func cost() enclave.CostModel { return libseal.DefaultCostModel() }

// moduleFor resolves a service module through the public registry. The names
// come from the static experiment tables, so a miss is a programming error.
func moduleFor(name string) libseal.Module {
	m, err := libseal.ModuleByName(name)
	if err != nil {
		panic(err)
	}
	return m
}

func status200(rsp *httpparse.Response) error {
	if rsp.Status != 200 {
		return fmt.Errorf("status %d", rsp.Status)
	}
	return nil
}

// scale shrinks request budgets in -quick mode.
func scale(q bool, n int) int {
	if q {
		return n / 4
	}
	return n
}

// ms converts a duration to milliseconds at microsecond resolution.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// pctOver is how far v lies above base, in percent.
func pctOver(v, base float64) float64 { return 100 * (v - base) / base }

// loadMetrics are the columns every closed-loop row has.
func loadMetrics(res bench.Result) map[string]float64 {
	return map[string]float64{
		"throughput_rps":  res.Throughput,
		"latency_mean_ms": ms(res.Latency.Mean),
		"latency_p95_ms":  ms(res.Latency.P95),
	}
}

// gitStack and ownCloudStack deploy the two audited services with the given
// backend processing cost; dropboxStack deploys Dropbox behind its proxy with
// the given one-way WAN latency.
func gitStack(backendCost time.Duration) func(bench.StackOptions) (*bench.Stack, error) {
	return func(o bench.StackOptions) (*bench.Stack, error) {
		st, err := bench.NewGitStack(o, backendCost)
		if err != nil {
			return nil, err
		}
		return st.Stack, nil
	}
}

func dropboxStack(wanOneWay time.Duration) func(bench.StackOptions) (*bench.Stack, error) {
	return func(o bench.StackOptions) (*bench.Stack, error) {
		st, err := bench.NewDropboxStack(o, wanOneWay)
		if err != nil {
			return nil, err
		}
		return st.Stack, nil
	}
}

func ownCloudStack(phpCost time.Duration) func(bench.StackOptions) (*bench.Stack, error) {
	return func(o bench.StackOptions) (*bench.Stack, error) {
		st, err := bench.NewOwnCloudStack(o, phpCost)
		if err != nil {
			return nil, err
		}
		return st.Stack, nil
	}
}

// staticLoad deploys a stack and drives GET /c against it from clients that
// open a fresh connection per request: every request pays a handshake, the
// worst case of §6.6.
func staticLoad(deploy func() (*bench.Stack, error), clients, requests, warmup int) (bench.Result, error) {
	st, err := deploy()
	if err != nil {
		return bench.Result{}, err
	}
	defer st.Close()
	return loadStatic(st, clients, requests, warmup)
}

func loadStatic(st *bench.Stack, clients, requests, warmup int) (bench.Result, error) {
	return bench.Load{
		Clients:     clients,
		Requests:    requests,
		Warmup:      warmup,
		MakeClient:  func(int) *bench.Client { return st.NewClient(false) },
		MakeRequest: func(_, _ int) *httpparse.Request { return httpparse.NewRequest("GET", "/c", nil) },
		Validate:    status200,
	}.Run()
}

// --- Table 1 ---------------------------------------------------------------

// runTable1 reports the module inventory with lines of code (counted from the
// source tree when available) and the measured enclave interface activity of
// a short audited workload.
// runTable1 counts lines two ways. loc is every Go line under the group's
// directories, tests included. tcb_loc is what the paper's Table 1 counts:
// the lines that run inside the enclave — non-test files of the packages an
// enclave thread executes (the auditor-side audit/mirror, the counter
// protocol, the services and the harness are outside it).
func runTable1(_ bool, emit func(row)) error {
	root := findModuleRoot()
	groups := []struct {
		name string
		dirs []string
		tcb  []string // globs of enclave-resident files; nil: none
	}{
		{"TLS termination (tlsterm, pki)", []string{"internal/tlsterm", "internal/pki"},
			[]string{"internal/tlsterm/*.go", "internal/pki/*.go"}},
		{"Enclave runtime (enclave)", []string{"internal/enclave"},
			[]string{"internal/enclave/*.go"}},
		{"Async transitions (asyncall, lthread)", []string{"internal/asyncall", "internal/lthread"},
			[]string{"internal/asyncall/*.go", "internal/lthread/*.go"}},
		{"SQL engine (sqldb)", []string{"internal/sqldb"},
			[]string{"internal/sqldb/*.go"}},
		{"Audit logging (audit, rote, core)", []string{"internal/audit", "internal/rote", "internal/core"},
			[]string{"internal/audit/*.go", "internal/core/*.go"}},
		{"Service modules (ssm/*)", []string{"internal/ssm"},
			[]string{"internal/ssm/*.go", "internal/ssm/*/*.go"}},
		{"Services and harness", []string{"internal/services", "internal/httpparse", "internal/netsim", "internal/bench", "internal/testutil"}, nil},
	}
	total, tcbTotal := 0, 0
	for _, g := range groups {
		loc := 0
		for _, d := range g.dirs {
			loc += countGoLines(filepath.Join(root, d))
		}
		total += loc
		m := map[string]float64{"loc": float64(loc)}
		if g.tcb != nil {
			tcb := 0
			for _, pattern := range g.tcb {
				files, _ := filepath.Glob(filepath.Join(root, pattern)) // the patterns are constants: no ErrBadPattern
				for _, f := range files {
					if !strings.HasSuffix(f, "_test.go") {
						tcb += countFileLines(f)
					}
				}
			}
			tcbTotal += tcb
			m["tcb_loc"] = float64(tcb)
		}
		emit(row{Cell: axes("module", g.name), Metrics: m})
	}
	emit(row{Cell: axes("module", "Total"), Metrics: map[string]float64{"loc": float64(total), "tcb_loc": float64(tcbTotal)}})

	// Enclave interface: measure a short audited Git workload.
	st, err := bench.NewGitStack(bench.StackOptions{Mode: bench.ModeDisk}, 0)
	if err != nil {
		return err
	}
	defer st.Close()
	client := st.NewClient(true)
	defer client.Close()
	for i := 0; i < 20; i++ {
		if _, err := client.Do(httpparse.NewRequest("POST", "/git/t/git-receive-pack",
			[]byte(fmt.Sprintf("update main c%d", i)))); err != nil {
			return err
		}
	}
	stats := st.Enclave.Stats()
	emit(row{Cell: axes("enclave interface", "20 audited Git requests"), Metrics: map[string]float64{
		"ecalls": float64(stats.Ecalls), "ocalls": float64(stats.Ocalls),
	}})
	return nil
}

func findModuleRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "."
		}
		dir = parent
	}
}

func countGoLines(dir string) int {
	lines := 0
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		lines += countFileLines(path)
		return nil
	})
	return lines
}

// countFileLines is the file's newline count; an unreadable file counts 0.
func countFileLines(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	return strings.Count(string(data), "\n")
}

// --- Figures 5a and 5b -----------------------------------------------------

// auditedModes runs one audited deployment per evaluation configuration and
// emits a row for each, with throughput relative to the first (native) one.
func auditedModes(emit func(row), modes []bench.SealMode, checkEvery int,
	deploy func(bench.StackOptions) (*bench.Stack, error), load bench.Load) error {
	var native float64
	for _, mode := range modes {
		run, err := bench.RunAudited(bench.StackOptions{
			Mode: mode, Cost: cost(), Seal: []libseal.Option{libseal.WithChecks(checkEvery, 0, 0)},
		}, deploy, load)
		if err != nil {
			return fmt.Errorf("%s: %w", mode, err)
		}
		if mode == bench.ModeNative {
			native = run.Throughput
		}
		m := loadMetrics(run.Result)
		m["vs_native_pct"] = pctOver(run.Throughput, native)
		if mode == bench.ModeDisk {
			m["verified_entries"] = float64(run.Entries)
		}
		emit(row{Cell: axes("mode", mode), Metrics: m})
	}
	return nil
}

func runFig5a(q bool, emit func(row)) error {
	return auditedModes(emit,
		[]bench.SealMode{bench.ModeNative, bench.ModeProcess, bench.ModeMem, bench.ModeDisk}, 25,
		gitStack(2*time.Millisecond), bench.Load{
			Clients: 4, Requests: scale(q, 320), Warmup: 8,
			MakeRequest: bench.GitRequest, Validate: status200,
		})
}

func runFig5b(q bool, emit func(row)) error {
	return auditedModes(emit,
		[]bench.SealMode{bench.ModeNative, bench.ModeMem, bench.ModeDisk}, 75,
		ownCloudStack(3*time.Millisecond), bench.Load{
			Clients: 4, Requests: scale(q, 160), Warmup: 8,
			MakeRequest: func(worker, seq int) *httpparse.Request {
				body, _ := json.Marshal(owncloudssm.PushMsg{
					Doc:    fmt.Sprintf("doc%d", worker),
					Client: fmt.Sprintf("client%d", worker),
					Ops:    []string{fmt.Sprintf("ins(%d,'x')", seq)},
				})
				return httpparse.NewRequest("POST", "/owncloud/push", body)
			},
			Validate: status200,
		})
}

// --- Figure 5c -------------------------------------------------------------

func runFig5c(q bool, emit func(row)) error {
	n := scale(q, 20)
	if n < 4 {
		n = 4
	}
	for _, mode := range []bench.SealMode{bench.ModeNative, bench.ModeMem, bench.ModeDisk} {
		st, err := bench.NewDropboxStack(bench.StackOptions{
			Mode: mode, Cost: cost(), Seal: []libseal.Option{libseal.WithChecks(100, 0, 0)},
		}, bench.DropboxWANLatency)
		if err != nil {
			return err
		}
		client := st.NewDropboxClient(true)
		timed := func(what string, req *httpparse.Request) (time.Duration, error) {
			start := time.Now()
			rsp, err := client.Do(req)
			if err != nil || rsp.Status != 200 {
				return 0, fmt.Errorf("%s: %v %v", what, rsp, err)
			}
			return time.Since(start), nil
		}
		commit := func(i int) (time.Duration, error) {
			body, _ := json.Marshal(dropboxssm.CommitBatchMsg{
				Account: "u", Host: "h",
				Commits: []dropboxssm.FileCommit{{File: fmt.Sprintf("f%d", i%40), Blocklist: fmt.Sprintf("%064d", i), Size: 4096}},
			})
			return timed("commit", httpparse.NewRequest("POST", "/dropbox/commit_batch", body))
		}
		_, err = commit(0) // warm up connection + handshake
		var commitTotal, listTotal time.Duration
		for i := 0; i < n && err == nil; i++ {
			var d time.Duration
			if d, err = commit(i + 1); err != nil {
				break
			}
			commitTotal += d
			d, err = timed("list", httpparse.NewRequest("GET", "/dropbox/list?account=u&host=h", nil))
			listTotal += d
		}
		client.Close()
		st.Close()
		if err != nil {
			return err
		}
		emit(row{Cell: axes("mode", mode), Metrics: map[string]float64{
			"commit_batch_ms": ms(commitTotal) / float64(n),
			"list_ms":         ms(listTotal) / float64(n),
		}})
	}
	return nil
}

// --- Figure 6 and §6.5: the log fillers ------------------------------------

var fillers = []struct {
	name   string
	mk     func() (*bench.LogFiller, error)
	unit   string                                         // what one retained tuple stands for (§6.5)
	deploy func(bench.StackOptions) (*bench.Stack, error) // the service's deployment (Fig. 6)
}{
	{"git", func() (*bench.LogFiller, error) { return bench.NewGitFiller(moduleFor("git")) }, "branch pointer", gitStack(0)},
	{"owncloud", func() (*bench.LogFiller, error) { return bench.NewOwnCloudFiller(moduleFor("owncloud")) }, "retained update", ownCloudStack(0)},
	{"dropbox", func() (*bench.LogFiller, error) { return bench.NewDropboxFiller(moduleFor("dropbox")) }, "live file", dropboxStack(0)},
}

func runFig6(q bool, emit func(row)) error {
	intervals := []int{25, 50, 75, 100, 150, 225, 300}
	if q {
		intervals = []int{25, 75, 150}
	}
	for _, svc := range fillers {
		for _, iv := range intervals {
			perReq, err := cycleCost(svc.mk, svc.deploy, iv)
			if err != nil {
				return fmt.Errorf("%s interval=%d: %w", svc.name, iv, err)
			}
			emit(row{Cell: axes("service", svc.name, "interval", iv),
				Metrics: map[string]float64{"check_trim_us_per_req": perReq}})
		}
	}
	return nil
}

// cycleMetrics are the histograms core's check+trim cycle records: the
// invariant check on the captured snapshot, the trim planned on it, the
// plan applied to the database and the compaction of the log files.
var cycleMetrics = []string{"audit.check.latency", "audit.trim.plan", "audit.trim.latency", "audit.compact.latency"}

// cycleCost deploys a service's disk-mode stack with a check+trim cycle
// every interval pairs and sends it the filler's request stream from one
// persistent client; the real service answers and core runs its own cycle,
// paying the product's fixed costs — the database trim, and the
// compaction's log rewrite, counter increment and re-signing whenever half
// the files are dead — the left arm of the paper's U-shaped curves. The cold
// first cycle is excluded: the cost is the time the next three cycles
// recorded in cycleMetrics, in µs per request sent from the end of the
// first cycle to the end of the fourth. The log is strictly re-verified
// afterwards.
func cycleCost(mk func() (*bench.LogFiller, error), deploy func(bench.StackOptions) (*bench.Stack, error), interval int) (float64, error) {
	filler, err := mk()
	if err != nil {
		return 0, err
	}
	st, err := deploy(bench.StackOptions{
		Mode: bench.ModeDisk, Cost: cost(), ROTELatency: 30 * time.Microsecond,
		Seal: []libseal.Option{libseal.WithChecks(interval, 0, 0)},
	})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	client := st.NewClient(true)
	defer client.Close()
	// upTo sends requests until core has run the given number of cycles (a
	// cycle finishes before its request's response is sent) and returns how
	// many it sent.
	upTo := func(cycles int64) (int, error) {
		n := 0
		for st.Seal.StatsSnapshot().Checks < cycles {
			if n == 4*interval {
				return n, fmt.Errorf("%d requests ran %d of %d cycles", n, st.Seal.StatsSnapshot().Checks, cycles)
			}
			rsp, err := client.Do(filler.Request())
			if err == nil {
				err = status200(rsp)
			}
			if err != nil {
				return n, err
			}
			n++
		}
		return n, nil
	}
	if _, err := upTo(1); err != nil {
		return 0, err
	}
	telemetry.Reset()
	n, err := upTo(4)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, name := range cycleMetrics {
		h, _ := telemetry.Get(name)
		total += time.Duration(h.Sum)
	}
	if v := st.Seal.StatsSnapshot().Violations; v != 0 {
		return 0, fmt.Errorf("the honest stream raised %d violations", v)
	}
	if _, err := st.Verify(); err != nil {
		return 0, err
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(n), nil
}

func runSec65(_ bool, emit func(row)) error {
	for _, c := range fillers {
		filler, err := c.mk()
		if err != nil {
			return err
		}
		if err := filler.Fill(400); err != nil {
			return err
		}
		if err := filler.Trim(); err != nil {
			return err
		}
		bytes, units := bench.LogFootprint(filler.DB)
		emit(row{Cell: axes("service", c.name, "unit", c.unit), Metrics: map[string]float64{
			"bytes_per_unit": float64(bytes) / float64(units), "tuples": float64(units),
		}})
	}
	return nil
}

// --- Figures 7a-7c ---------------------------------------------------------

// contentSizes are the static-content sizes of Fig. 7a; Table 2 uses four.
var contentSizes = []struct {
	name string
	n    int
}{{"0B", 0}, {"1KB", 1 << 10}, {"10KB", 10 << 10}, {"64KB", 64 << 10},
	{"512KB", 512 << 10}, {"1MB", 1 << 20}, {"10MB", 10 << 20}, {"100MB", 100 << 20}}

func runFig7a(q bool, emit func(row)) error {
	sizes := contentSizes
	if q {
		sizes = sizes[:5]
	}
	for _, size := range sizes {
		requests := 120
		if size.n >= 512<<10 {
			requests = 24
		}
		if size.n >= 10<<20 {
			requests = 6
		}
		var native float64
		for _, mode := range []bench.SealMode{bench.ModeNative, bench.ModeProcess} {
			res, err := staticLoad(func() (*bench.Stack, error) {
				return bench.NewStaticStack(tlsOpts(mode), size.n, false)
			}, 4, scale(q, requests), 2)
			if err != nil {
				return err
			}
			m := loadMetrics(res)
			if mode == bench.ModeNative {
				native = res.Throughput
			} else {
				m["overhead_pct"] = -pctOver(res.Throughput, native)
			}
			emit(row{Cell: axes("size", size.name, "mode", mode), Metrics: m})
		}
	}
	return nil
}

// tlsOpts is TLS termination without auditing over the async bridge, native
// or inside LibSEAL: the configurations the §6.6 experiments compare.
func tlsOpts(mode bench.SealMode) bench.StackOptions {
	return bench.StackOptions{Mode: mode, Cost: cost(), CallMode: asyncall.ModeAsync}
}

func runFig7b(q bool, emit func(row)) error {
	for _, mode := range []bench.SealMode{bench.ModeNative, bench.ModeProcess} {
		res, err := staticLoad(func() (*bench.Stack, error) { return bench.NewSquidStack(tlsOpts(mode), 1<<10) },
			4, scale(q, 160), 4)
		if err != nil {
			return err
		}
		label := "Squid-LibreSSL"
		if mode == bench.ModeProcess {
			label = "Squid-LibSEAL"
		}
		emit(row{Cell: axes("configuration", label), Metrics: loadMetrics(res)})
	}
	return nil
}

func runFig7c(q bool, emit func(row)) error {
	servers := []struct {
		name   string
		deploy func() (*bench.Stack, error)
	}{
		{"apache", func() (*bench.Stack, error) { return bench.NewStaticStack(tlsOpts(bench.ModeProcess), 1<<10, false) }},
		{"squid", func() (*bench.Stack, error) { return bench.NewSquidStack(tlsOpts(bench.ModeProcess), 1<<10) }},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for cores := 1; cores <= 4; cores++ {
		runtime.GOMAXPROCS(cores)
		for _, srv := range servers {
			res, err := staticLoad(srv.deploy, 4, scale(q, 80), 4)
			if err != nil {
				return err
			}
			emit(row{Cell: axes("cores", cores, "server", srv.name), Metrics: loadMetrics(res)})
		}
	}
	return nil
}

// --- Tables 2-4 ------------------------------------------------------------

func runStatic(q bool, cm asyncall.Mode, schedulers, tasks, contentSize int) (bench.Result, error) {
	return staticLoad(func() (*bench.Stack, error) {
		return bench.NewStaticStack(bench.StackOptions{
			Mode: bench.ModeProcess, Cost: cost(), CallMode: cm,
			Schedulers: schedulers, TasksPerScheduler: tasks, MaxThreads: 48,
		}, contentSize, false)
	}, 8, scale(q, 160), 8)
}

func runTable2(q bool, emit func(row)) error {
	sizes := contentSizes[:4]
	syncRPS := make([]float64, len(sizes))
	for _, cm := range []asyncall.Mode{asyncall.ModeSync, asyncall.ModeAsync} {
		for i, s := range sizes {
			res, err := runStatic(q, cm, 3, 16, s.n)
			if err != nil {
				return err
			}
			m := loadMetrics(res)
			if cm == asyncall.ModeSync {
				syncRPS[i] = res.Throughput
			} else {
				m["improvement_pct"] = pctOver(res.Throughput, syncRPS[i])
			}
			emit(row{Cell: axes("bridge", cm, "size", s.name), Metrics: m})
		}
	}
	return nil
}

func runTable3(q bool, emit func(row)) error {
	for _, s := range []int{1, 2, 3, 4} {
		res, err := runStatic(q, asyncall.ModeAsync, s, 48, 1<<10)
		if err != nil {
			return err
		}
		emit(row{Cell: axes("sgx_threads", s), Metrics: loadMetrics(res)})
	}
	return nil
}

func runTable4(q bool, emit func(row)) error {
	for _, t := range []int{12, 24, 36, 48} {
		res, err := runStatic(q, asyncall.ModeAsync, 3, t, 1<<10)
		if err != nil {
			return err
		}
		emit(row{Cell: axes("lthreads", t), Metrics: loadMetrics(res)})
	}
	return nil
}

// --- §4.2 ------------------------------------------------------------------

func runSec42(q bool, emit func(row)) error {
	for _, optimized := range []bool{true, false} {
		opts := tlsterm.Optimizations{}
		label := "unoptimized"
		if optimized {
			opts = tlsterm.AllOptimizations()
			label = "optimized"
		}
		st, err := bench.NewStaticStack(bench.StackOptions{
			Mode: bench.ModeProcess, Cost: cost(), CallMode: asyncall.ModeSync,
			Opts: &opts, UseExData: true,
		}, 1<<10, false)
		if err != nil {
			return err
		}
		requests := scale(q, 120)
		st.Enclave.ResetStats()
		res, err := loadStatic(st, 4, requests, 0)
		stats := st.Enclave.Stats()
		st.Close()
		if err != nil {
			return err
		}
		m := loadMetrics(res)
		m["ecalls_per_req"] = float64(stats.Ecalls) / float64(requests)
		m["ocalls_per_req"] = float64(stats.Ocalls) / float64(requests)
		emit(row{Cell: axes("configuration", label), Metrics: m})
	}
	return nil
}

// --- §6.8 ------------------------------------------------------------------

func runSec68(_ bool, emit func(row)) error {
	for _, threads := range []int{1, 8, 16, 32, 48} {
		encl, bridge, err := testutil.NewBridge(testutil.BridgeOptions{
			Mode: asyncall.ModeSync, MaxThreads: threads, Cost: cost(),
		})
		if err != nil {
			return err
		}
		const calls = 50
		start := time.Now()
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := 0; c < calls; c++ {
					_ = encl.Ecall(func(*enclave.Ctx) error { return nil })
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		bridge.Close()
		// Threads run their ecalls in parallel, so wall time over the calls
		// of one thread understates per-call cost on multicore hosts but
		// preserves the trend.
		emit(row{Cell: axes("threads", threads),
			Metrics: map[string]float64{"wall_us_per_ecall": float64(elapsed.Microseconds()) / calls}})
	}
	return nil
}

// --- §6.2 attack detection ---------------------------------------------------

func runDetect(_ bool, emit func(row)) error {
	// report runs a check and records whether it names a violation.
	report := func(attack string, seal *libseal.LibSEAL) {
		verdict, err := seal.CheckNow()
		if err != nil {
			verdict = "error: " + err.Error()
		}
		detected := 0.0
		if strings.HasPrefix(verdict, "violation:") {
			detected = 1
		}
		emit(row{Cell: axes("attack", attack, "check result", verdict), Metrics: map[string]float64{"detected": detected}})
	}

	// Git: rollback, teleport, reference deletion.
	git, err := bench.NewGitStack(bench.StackOptions{Mode: bench.ModeMem}, 0)
	if err != nil {
		return err
	}
	gc := git.NewClient(true)
	gc.Do(httpparse.NewRequest("POST", "/git/r/git-receive-pack", []byte("create main c1")))
	gc.Do(httpparse.NewRequest("POST", "/git/r/git-receive-pack", []byte("update main c2\ncreate dev d1")))
	git.Backend.InjectRollback("r", "main", "c1")
	gc.Do(httpparse.NewRequest("GET", "/git/r/info/refs", nil))
	report("git rollback", git.Seal)
	git.Seal.TrimNow()
	git.Backend.ClearFaults()
	git.Backend.InjectTeleport("r", "main", "d1")
	gc.Do(httpparse.NewRequest("GET", "/git/r/info/refs", nil))
	report("git teleport", git.Seal)
	git.Seal.TrimNow()
	git.Backend.ClearFaults()
	git.Backend.InjectRefDeletion("r", "dev")
	gc.Do(httpparse.NewRequest("GET", "/git/r/info/refs", nil))
	report("git ref deletion", git.Seal)
	gc.Close()
	git.Close()

	// ownCloud: lost edit.
	oc, err := bench.NewOwnCloudStack(bench.StackOptions{Mode: bench.ModeMem}, 0)
	if err != nil {
		return err
	}
	occ := oc.NewClient(true)
	push, _ := json.Marshal(owncloudssm.PushMsg{Doc: "d", Client: "a", Ops: []string{"x", "y"}})
	occ.Do(httpparse.NewRequest("POST", "/owncloud/push", push))
	oc.Service.SetFaults(owncloud.Faults{DropEveryNthOp: 2})
	syncMsg, _ := json.Marshal(owncloudssm.SyncMsg{Doc: "d", Client: "b", Since: 0})
	occ.Do(httpparse.NewRequest("POST", "/owncloud/sync", syncMsg))
	report("owncloud lost edit", oc.Seal)
	occ.Close()
	oc.Close()

	// Dropbox: corrupted blocklist and lost file.
	db, err := bench.NewDropboxStack(bench.StackOptions{Mode: bench.ModeMem}, 0)
	if err != nil {
		return err
	}
	dbc := db.NewDropboxClient(true)
	commit, _ := json.Marshal(dropboxssm.CommitBatchMsg{Account: "a", Host: "h",
		Commits: []dropboxssm.FileCommit{{File: "f1", Blocklist: "b1", Size: 1}, {File: "f2", Blocklist: "b2", Size: 2}}})
	dbc.Do(httpparse.NewRequest("POST", "/dropbox/commit_batch", commit))
	db.Service.InjectBlocklistCorruption("f1")
	dbc.Do(httpparse.NewRequest("GET", "/dropbox/list?account=a&host=h", nil))
	report("dropbox corrupted blocklist", db.Seal)
	db.Seal.TrimNow()
	db.Service.ClearFaults()
	db.Service.InjectFileLoss("f2")
	dbc.Do(httpparse.NewRequest("GET", "/dropbox/list?account=a&host=h", nil))
	report("dropbox lost file", db.Seal)
	dbc.Close()
	db.Close()

	// Messaging (the fourth scenario of §2.2): dropped, modified and
	// misdelivered messages, audited through the full stack behind a
	// LibSEAL-audited Apache front end.
	cases := []struct {
		name   string
		faults messaging.Faults
	}{
		{"messaging dropped message", messaging.Faults{DropEveryNth: 1}},
		{"messaging modified message", messaging.Faults{CorruptBodies: true}},
		{"messaging misdelivery", messaging.Faults{MisdeliverTo: "eve"}},
	}
	for _, c := range cases {
		svc := messaging.NewServer()
		st, err := bench.NewCustomStack(bench.StackOptions{Mode: bench.ModeMem},
			moduleFor("messaging"), svc.Handler())
		if err != nil {
			return err
		}
		client := st.NewClient(true)
		send, _ := json.Marshal(messagingssm.SendMsg{From: "alice", To: "bob", Body: "hello"})
		client.Do(httpparse.NewRequest("POST", "/messaging/send", send))
		svc.SetFaults(c.faults)
		for _, user := range []string{"bob", "eve"} {
			inbox, _ := json.Marshal(messagingssm.InboxMsg{User: user, Since: 0})
			client.Do(httpparse.NewRequest("POST", "/messaging/inbox", inbox))
		}
		report(c.name, st.Seal)
		client.Close()
		st.Close()
	}
	return nil
}
