package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/audit"
	"libseal/internal/audit/mirror"
	"libseal/internal/bench"
	"libseal/internal/core"
	"libseal/internal/sqldb"
	"libseal/internal/ssm/gitssm"
	"libseal/internal/telemetry"
)

// The sweeps of the layers added since the paper. Their rows carry no
// ratios: every speedup or reduction EXPERIMENTS.md talks about is the
// quotient of one metric in two rows.

// auditedGit runs the Fig. 5a closed-loop Git workload against the audited
// disk-mode deployment (hash chain, signature, fsync and ROTE anchor on the
// append path, 500 µs backend cost) and returns the run plus the metrics
// every such row has.
func auditedGit(opts bench.StackOptions, clients, requests, warmup int) (bench.AuditedRun, map[string]float64, error) {
	opts.Mode, opts.Cost = bench.ModeDisk, cost()
	run, err := bench.RunAudited(opts, gitStack(500*time.Microsecond), bench.Load{
		Clients: clients, Requests: requests, Warmup: warmup,
		MakeRequest: bench.GitRequest, Validate: status200,
	})
	if err != nil {
		return run, nil, err
	}
	appendLat := run.Telemetry["audit.append.latency"]
	return run, map[string]float64{
		"throughput_rps":   run.Throughput,
		"append_p50_ms":    ms(time.Duration(appendLat.P50)),
		"append_p95_ms":    ms(time.Duration(appendLat.P95)),
		"append_p99_ms":    ms(time.Duration(appendLat.P99)),
		"verified_entries": float64(run.Entries),
	}, nil
}

// runGroupCommit measures what group commit buys: the three per-request
// durability costs a batch amortises (fsyncs, signatures, counter
// increments) and throughput, across batching off/on, both bridge modes and
// 1/4/16 clients, with a check+trim every 20 pairs.
func runGroupCommit(q bool, emit func(row)) error {
	for _, batch := range []bool{false, true} {
		for _, mode := range []asyncall.Mode{asyncall.ModeSync, asyncall.ModeAsync} {
			for _, clients := range []int{1, 4, 16} {
				opts := bench.StackOptions{CallMode: mode, Core: core.Config{CheckEvery: 20}}
				if batch {
					opts.Core.AuditBatchMax = 16
					opts.Core.AuditBatchDelay = 750 * time.Microsecond
				}
				run, m, err := auditedGit(opts, clients, scale(q, 480), 16)
				if err != nil {
					return fmt.Errorf("batch=%v bridge=%s clients=%d: %w", batch, mode, clients, err)
				}
				m["fsyncs_per_req"] = run.PerRequest("audit.fsyncs")
				m["signatures_per_req"] = run.PerRequest("audit.signatures")
				m["increments_per_req"] = run.PerRequest("rote.increments")
				m["batch_commits"] = float64(run.Telemetry["audit.batch.commits"].Value)
				m["batch_size_mean"] = run.Telemetry["audit.batch.size"].Mean
				m["sync_calls"] = float64(run.Telemetry["asyncall.sync_calls"].Value)
				m["async_calls"] = float64(run.Telemetry["asyncall.async_calls"].Value)
				emit(row{Cell: axes("batch", batch, "bridge", mode, "clients", clients), Metrics: m})
			}
		}
	}
	return nil
}

// runShards measures how much aggregate append throughput partitioning the
// audit log buys. Each shard runs its own group-commit pipeline with its own
// rollback counter, so the per-batch counter increment and fsync — the
// serial section of a single log — proceed in parallel across shards. 16
// clients stage 8 rows per durable wait at batch max 16; every set is
// strictly re-verified, manifest replay included. Each row also says how
// late the simulator delivered the counter round trips it modelled.
func runShards(q bool, emit func(row)) error {
	entries := 48_000
	if q {
		entries = 8_000
	}
	for _, shards := range []int{1, 2, 4, 8} {
		e, err := bench.NewAuditEnv(shards, audit.MeasuredBatchMax, 500*time.Microsecond)
		if err != nil {
			return err
		}
		telemetry.Reset()
		staged, elapsed, err := e.Drive(16, entries, 8)
		late, _ := telemetry.Get("simtime.rote.late")
		var rep *audit.Report
		t0 := time.Now()
		if err == nil {
			rep, err = e.Verify()
		}
		verify := time.Since(t0)
		e.Close()
		if err != nil {
			return fmt.Errorf("shards=%d: %w", shards, err)
		}
		emit(row{Cell: axes("shards", shards), Metrics: map[string]float64{
			"elapsed_s":        elapsed.Seconds(),
			"entries":          float64(staged),
			"entries_per_s":    float64(staged) / elapsed.Seconds(),
			"verify_s":         verify.Seconds(),
			"verified_entries": float64(rep.TotalEntries),
			"manifests":        float64(rep.Manifests),
			"epoch":            float64(rep.Epoch),
			// Per node wait of each round trip: realised minus modelled.
			"counter_wait_late_p50_us": float64(late.P50) / 1e3,
			"counter_wait_late_p99_us": float64(late.P99) / 1e3,
		}})
	}
	return nil
}

// runChecks measures what an invariant check costs as the log grows, and
// what running checks costs the request path. Part one fills a Git audit
// database to several sizes and times a full snapshot check with the hash
// indexes off and on; both must report the same violations. Part two runs
// the audited Git deployment without and with check+trim cycles.
func runChecks(q bool, emit func(row)) error {
	sizes, iters := []int{2_000, 8_000, 32_000}, 3
	// A check-and-trim cycle every 400 pairs lands ~6 cycles inside the ~2 s
	// run — one every ~350 ms, still ~30x more aggressive than the paper's
	// periodic default (§5.2 checks on a seconds-scale wall-clock cadence).
	// Every cycle here includes a trim, and the ones that leave half the log
	// dead a compaction, which quiesces, rewrites, fsyncs and re-signs it —
	// work the no-check baseline never does at all, so the comparison is a
	// conservative measure of check cost.
	checkEvery := 400
	if q {
		sizes, iters, checkEvery = []int{500, 2_000}, 2, 50
	}
	for _, size := range sizes {
		var scan float64
		for _, indexed := range []bool{false, true} {
			m, err := checkLatency(size, iters, indexed)
			if err != nil {
				return fmt.Errorf("rows=%d indexed=%v: %w", size, indexed, err)
			}
			if !indexed {
				scan = m["violations"]
			} else if m["violations"] != scan {
				return fmt.Errorf("rows=%d: scan and indexed checks disagree (%v vs %v violations)", size, scan, m["violations"])
			}
			emit(row{Cell: axes("rows", size, "indexed", indexed), Metrics: m})
		}
	}

	for _, mode := range []string{"none", "on"} {
		opts := bench.StackOptions{Core: core.Config{AuditBatchMax: 16, AuditBatchDelay: 750 * time.Microsecond}}
		if mode != "none" {
			opts.Core.CheckEvery = checkEvery
		}
		// Short closed-loop runs are noisy: best of three, every attempt's
		// log still strictly re-verified.
		var best map[string]float64
		for i := 0; i < 3; i++ {
			run, m, err := auditedGit(opts, 4, scale(q, 2_400), 32)
			if err != nil {
				return fmt.Errorf("checks=%s: %w", mode, err)
			}
			m["checks"] = float64(run.Stats.Checks)
			m["trims"] = float64(run.Stats.Trims)
			m["trims_skipped"] = float64(run.Stats.TrimsSkipped)
			m["check_p95_ms"] = ms(time.Duration(run.Telemetry["audit.check.latency"].P95))
			m["check_total_ms"] = ms(time.Duration(run.Telemetry["audit.check.latency"].Sum))
			m["trim_total_ms"] = ms(time.Duration(run.Telemetry["audit.trim.latency"].Sum))
			if best == nil || m["throughput_rps"] > best["throughput_rps"] {
				best = m
			}
		}
		emit(row{Cell: axes("checks", mode), Metrics: best})
	}
	return nil
}

// checkLatency fills a Git audit database to size rows and times a full
// snapshot check, indexes on or off: the mean over iters, plus the first
// iteration's per-invariant split and violation count. Each iteration
// captures a fresh snapshot — exactly what the live check path does — so the
// indexed cell pays the lazy index build too, not just the probes.
func checkLatency(size, iters int, indexed bool) (map[string]float64, error) {
	module := gitssm.New()
	db := sqldb.New()
	if _, err := db.Exec(module.Schema()); err != nil {
		return nil, err
	}
	db.SetIndexing(indexed)
	if err := fillGitDB(db, size); err != nil {
		return nil, err
	}
	m := map[string]float64{"violations": 0}
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		snap := db.Snapshot()
		for _, inv := range module.Invariants() {
			start := time.Now()
			res, err := snap.Query(inv.SQL)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", inv.Name, err)
			}
			if i == 0 {
				m[inv.Name+"_ms"] = ms(time.Since(start))
				m["violations"] += float64(len(res.Rows))
			}
		}
	}
	m["check_ms"] = ms(time.Since(t0)) / float64(iters)
	return m, nil
}

// Latency-cell workload shape: a hosting service audits many repositories,
// not one, so equality predicates on (repo, branch) are selective — the
// case hash indexes exist for. A single-repo history (the Fig. 6 filler)
// is the degenerate case where every row shares the join key and an index
// cannot beat the cross product.
const (
	fillRepos    = 20
	fillBranches = 8
)

// fillGitDB writes a consistent multi-repo Git history directly into the
// audit schema: round-robin pushes across fillRepos × fillBranches
// branches, with one full-repository advertisement every tenth round. The
// advertised heads always match the latest update, so a correct engine
// reports zero violations — which the caller cross-checks between the
// indexed and scan cells.
func fillGitDB(db *sqldb.DB, rows int) error {
	heads := make(map[string]string)
	clock, total, round := 0, 0, 0
	for total < rows {
		round++
		for r := 0; r < fillRepos && total < rows; r++ {
			repo := fmt.Sprintf("repo%02d", r)
			branch := fmt.Sprintf("b%02d", (round+r)%fillBranches)
			clock++
			cid := fmt.Sprintf("c%08d", clock)
			if _, err := db.Exec("INSERT INTO updates VALUES (?,?,?,?,?)",
				clock, repo, branch, cid, "update"); err != nil {
				return err
			}
			heads[repo+"/"+branch] = cid
			total++
		}
		if round%10 == 0 && total+fillBranches <= rows {
			repo := fmt.Sprintf("repo%02d", (round/10)%fillRepos)
			clock++
			for b := 0; b < fillBranches; b++ {
				branch := fmt.Sprintf("b%02d", b)
				cid, live := heads[repo+"/"+branch]
				if !live {
					continue
				}
				if _, err := db.Exec("INSERT INTO advertisements VALUES (?,?,?,?)",
					clock, repo, branch, cid); err != nil {
					return err
				}
				total++
			}
		}
	}
	return nil
}

// runMirror measures how much append throughput one live mirror costs the
// server (the feed reads committed files outside the append path, so the
// only coupling is disk and CPU contention), and how quickly a mirror turns
// a single-shard rollback into a violation: truncate one shard behind the
// log's back, drop the link, and time the reconnected mirror's verdict.
func runMirror(q bool, emit func(row)) error {
	entries, reps := 24_000, 2
	if q {
		entries, reps = 4_000, 1
	}
	const (
		clients      = 8
		shards       = 4
		batchMax     = 64
		rowsPerStage = 8
		// ROTE anchoring is a network quorum round trip in the paper's
		// deployment (~2ms). With realistic anchor latency the appenders are
		// latency-bound, which is the regime the overhead question is about:
		// the feed itself costs almost nothing, and on a small bench box the
		// colocated mirror's signature verification runs inside the
		// appenders' anchor-wait gaps. (In production the mirror is separate
		// hardware and its verify CPU is not the server's problem at all.)
		roteLatency = 2 * time.Millisecond
	)
	appendMetrics := func(staged int, elapsed time.Duration) map[string]float64 {
		return map[string]float64{
			"elapsed_s": elapsed.Seconds(), "entries": float64(staged),
			"entries_per_s": float64(staged) / elapsed.Seconds(),
		}
	}
	better := func(m, best map[string]float64) bool {
		return best == nil || m["entries_per_s"] > best["entries_per_s"]
	}

	// Baseline: no feed, no mirror. Best of reps — on a shared box the
	// scheduler adds run-to-run noise the sweep should not report as
	// mirroring overhead.
	var best map[string]float64
	for rep := 0; rep < reps; rep++ {
		e, err := bench.NewAuditEnv(shards, batchMax, roteLatency)
		if err != nil {
			return err
		}
		staged, elapsed, err := e.Drive(clients, entries, rowsPerStage)
		var report *audit.Report
		if err == nil {
			report, err = e.Verify()
		}
		e.Close()
		if err != nil {
			return fmt.Errorf("unmirrored run: %w", err)
		}
		m := appendMetrics(staged, elapsed)
		m["verified_entries"] = float64(report.TotalEntries)
		if better(m, best) {
			best = m
		}
	}
	emit(row{Cell: axes("mirrored", false), Metrics: best})

	// Mirrored: same workload with one live mirror attached throughout. The
	// last rep's log and mirror stay live for the rollback stage.
	var (
		l      *mirroredLog
		staged int
	)
	defer func() { l.close() }()
	best = nil
	for rep := 0; rep < reps; rep++ {
		l.close()
		var err error
		if l, err = newMirroredLog(shards, batchMax, roteLatency); err != nil {
			return err
		}
		var elapsed time.Duration
		if staged, elapsed, err = l.Drive(clients, entries, rowsPerStage); err != nil {
			return fmt.Errorf("mirrored run: %w", err)
		}
		tCatch := time.Now()
		if err := l.waitMirror(staged, 60*time.Second); err != nil {
			return err
		}
		r := l.mirror.Report()
		m := appendMetrics(staged, elapsed)
		m["catchup_ms"] = ms(time.Since(tCatch))
		m["mirror_verified_entries"] = float64(r.TotalEntries)
		m["mirror_restarts"] = float64(r.Restarts)
		if better(m, best) {
			best = m
		}
	}
	emit(row{Cell: axes("mirrored", true), Metrics: best})

	// Rollback detection: record a committed boundary on one shard, append
	// past it, truncate back, drop the link, and time the verdict.
	const victim = 0
	victimPath := filepath.Join(l.Dir, audit.ShardName("bench", victim)+".lseal")
	fi, err := os.Stat(victimPath)
	if err != nil {
		return err
	}
	victimKey := uint64(0)
	for l.Log.ShardFor(victimKey) != victim {
		victimKey++
	}
	if err := l.Bridge.Call(func(env *asyncall.Env) error {
		for i := 0; i < 64; i++ {
			if err := l.Log.Append(env, victimKey, "ops", i, 0, "post"); err != nil {
				return err
			}
		}
		return l.Log.ManifestIfDue(env)
	}); err != nil {
		return err
	}
	if err := l.waitMirror(staged+64, 30*time.Second); err != nil {
		return err
	}
	t0 := time.Now()
	if err := os.Truncate(victimPath, fi.Size()); err != nil {
		return err
	}
	l.feed.DisconnectAll()
	select {
	case verr := <-l.violated:
		detect := time.Since(t0)
		verdict, isRollback := verr.Error(), 0.0
		if errors.Is(verr, audit.ErrBadCounter) {
			verdict, isRollback = "ErrBadCounter", 1
		}
		emit(row{Cell: axes("rollback", "shard 0 truncated, link dropped", "verdict", verdict),
			Metrics: map[string]float64{"detect_ms": ms(detect), "is_rollback_verdict": isRollback}})
	case <-time.After(30 * time.Second):
		return fmt.Errorf("rollback never detected; report %+v", l.mirror.Report())
	}
	return nil
}

// mirroredLog is an audit-only environment with a replication feed on
// loopback and one live mirror following it from the first append.
type mirroredLog struct {
	*bench.AuditEnv
	feed     *mirror.Feed
	mirror   *mirror.Mirror
	violated chan error // the mirror's first violation
}

func newMirroredLog(shards, batchMax int, roteLatency time.Duration) (*mirroredLog, error) {
	e, err := bench.NewAuditEnv(shards, batchMax, roteLatency)
	if err != nil {
		return nil, err
	}
	l := &mirroredLog{AuditEnv: e, violated: make(chan error, 1)}
	if l.feed, err = mirror.NewFeed(mirror.FeedConfig{Log: e.Log}); err != nil {
		l.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.close()
		return nil, err
	}
	go l.feed.Serve(ln)
	l.mirror, err = mirror.Start(context.Background(), mirror.Config{
		Addr: ln.Addr().String(), Name: "bench", Pub: e.Enclave.PublicKey(),
		BackoffMin: 10 * time.Millisecond, RestartGrace: 400 * time.Millisecond,
		OnViolation: func(err error) {
			select {
			case l.violated <- err:
			default:
			}
		},
	})
	if err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

// close stops the mirror, the feed and the log; a nil receiver has none.
func (l *mirroredLog) close() {
	if l == nil {
		return
	}
	if l.mirror != nil {
		l.mirror.Stop(context.Background())
	}
	if l.feed != nil {
		l.feed.Close()
	}
	l.AuditEnv.Close()
}

// waitMirror blocks until the mirror has verified want entries with no lag.
func (l *mirroredLog) waitMirror(want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if err := l.mirror.Err(); err != nil {
			return err
		}
		r := l.mirror.Report()
		if r.CaughtUp && r.LagBytes == 0 && r.Connected && r.TotalEntries >= want {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	r := l.mirror.Report()
	return fmt.Errorf("mirror never caught up: entries=%d want=%d lag=%d", r.TotalEntries, want, r.LagBytes)
}
