package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/audit"
	"libseal/internal/bench"
	"libseal/internal/enclave"
	"libseal/internal/rote"
)

// The sharding bench: how much aggregate append throughput does partitioning
// the audit log buy? Each shard runs its own group-commit pipeline with its
// own rollback counter, so the per-batch counter increment and fsync — the
// serial section of a single log — proceed in parallel across shards. The
// sweep drives 16 client goroutines (one connection key each) against 1, 2,
// 4 and 8 shards over a ROTE group with simulated network latency, then
// re-verifies the whole set including the epoch-manifest replay. The
// acceptance bar for PR 8 is ≥2× at 4 shards versus 1.

const shardBenchSchema = `CREATE TABLE ops (time INTEGER, client INTEGER, op TEXT);`

type shardReport struct {
	Bench   string           `json:"bench"`
	Config  shardBenchConfig `json:"config"`
	Runs    []shardRun       `json:"runs"`
	Summary shardSummary     `json:"summary"`
}

type shardBenchConfig struct {
	Clients  int `json:"clients"`
	Entries  int `json:"entries_per_run"`
	BatchMax int `json:"batch_max"`
	// RowsPerStage is the rows one client stages per durable wait (a
	// request/response pair logs a handful of tuples).
	RowsPerStage int `json:"rows_per_stage"`
	// RoteLatencyUS is the simulated one-way network latency to the counter
	// nodes; it is what makes the anchor the serial section.
	RoteLatencyUS int64 `json:"rote_latency_us"`
	Quick         bool  `json:"quick"`
	MaxProcs      int   `json:"gomaxprocs"`
}

type shardRun struct {
	Shards    int     `json:"shards"`
	NS        int64   `json:"ns"`
	EntriesPS float64 `json:"entries_per_sec"`
	SpeedupV1 float64 `json:"speedup_vs_1_shard"`

	// Post-run verification of the written set (strict, manifest replay
	// included for sharded runs).
	VerifyNS        int64  `json:"verify_ns"`
	VerifiedEntries int    `json:"verified_entries"`
	Manifests       int    `json:"manifests"`
	Epoch           uint64 `json:"epoch"`
	VerifyOK        bool   `json:"verify_ok"`
}

type shardSummary struct {
	SpeedupAt4Shards float64 `json:"speedup_at_4_shards"`
	BestSpeedup      float64 `json:"best_speedup"`
	BestShards       int     `json:"best_shards"`
}

// runShardBench sweeps shard counts and writes the report.
func runShardBench(path string, q bool) error {
	clients := 16
	entries := 48_000
	if q {
		entries = 8_000
	}
	const (
		batchMax     = 16
		rowsPerStage = 8
		roteLatency  = 500 * time.Microsecond
	)

	report := shardReport{
		Bench: "pr8-sharded-append",
		Config: shardBenchConfig{
			Clients: clients, Entries: entries, BatchMax: batchMax,
			RowsPerStage: rowsPerStage, RoteLatencyUS: roteLatency.Microseconds(),
			Quick: q, MaxProcs: runtime.GOMAXPROCS(0),
		},
	}

	for _, shards := range []int{1, 2, 4, 8} {
		run, err := shardSweepOne(shards, clients, entries, batchMax, rowsPerStage, roteLatency)
		if err != nil {
			return fmt.Errorf("shards=%d: %w", shards, err)
		}
		if len(report.Runs) > 0 {
			run.SpeedupV1 = float64(report.Runs[0].NS) / float64(run.NS)
		} else {
			run.SpeedupV1 = 1
		}
		report.Runs = append(report.Runs, run)
		fmt.Printf("shards=%d  %.2fs (%.0f entries/s, %.2fx vs 1 shard)  verify %.2fs: %d entries, %d manifests, epoch %d\n",
			shards, float64(run.NS)/1e9, run.EntriesPS, run.SpeedupV1,
			float64(run.VerifyNS)/1e9, run.VerifiedEntries, run.Manifests, run.Epoch)
	}

	for _, r := range report.Runs {
		if r.Shards == 4 {
			report.Summary.SpeedupAt4Shards = r.SpeedupV1
		}
		if r.SpeedupV1 > report.Summary.BestSpeedup {
			report.Summary.BestSpeedup = r.SpeedupV1
			report.Summary.BestShards = r.Shards
		}
	}
	fmt.Printf("\nspeedup at 4 shards: %.2fx (best %.2fx at %d shards)\n",
		report.Summary.SpeedupAt4Shards, report.Summary.BestSpeedup, report.Summary.BestShards)

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// shardSweepOne times one shard count end to end: fresh enclave, fresh
// counter group, fresh directory; clients append until the entry budget is
// spent; the set is closed and strictly re-verified.
func shardSweepOne(shards, clients, entries, batchMax, rowsPerStage int, roteLatency time.Duration) (shardRun, error) {
	run := shardRun{Shards: shards}

	p := enclave.NewPlatform()
	encl, err := p.Launch(enclave.Config{
		Code: []byte("libseal-shard-bench"), MaxThreads: 32, Cost: enclave.ZeroCostModel(),
	})
	if err != nil {
		return run, err
	}
	bridge, err := asyncall.New(encl, asyncall.Config{Mode: asyncall.ModeSync})
	if err != nil {
		return run, err
	}
	defer bridge.Close()
	group, err := rote.NewGroup(1, roteLatency)
	if err != nil {
		return run, err
	}
	dir, err := os.MkdirTemp("", "libseal-shard-bench-*")
	if err != nil {
		return run, err
	}
	defer os.RemoveAll(dir)

	cfg := audit.ShardedConfig{
		Config: audit.Config{
			Name: "bench", Schema: shardBenchSchema, Mode: audit.ModeDisk,
			Dir: dir, Protector: group,
			BatchMax: batchMax, BatchDelay: 200 * time.Microsecond,
			AnchorTimeout: 5 * time.Second,
		},
		Shards:        shards,
		ManifestEvery: 100 * time.Millisecond,
	}
	var log *audit.ShardedLog
	if err := bridge.Call(func(env *asyncall.Env) error {
		log, err = audit.NewSharded(env, cfg)
		return err
	}); err != nil {
		return run, err
	}

	perClient := entries / clients / rowsPerStage // stages per client
	var wg sync.WaitGroup
	errs := make([]error, clients)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key := uint64(c)
			rows := make([]audit.Row, rowsPerStage)
			for i := 0; i < perClient; i++ {
				for j := range rows {
					rows[j] = audit.Row{Table: "ops", Values: []any{i, c, "put"}}
				}
				err := bridge.Call(func(env *asyncall.Env) error {
					tk, err := log.Stage(env, key, rows)
					if err != nil {
						return err
					}
					if err := tk.Wait(env); err != nil {
						return err
					}
					// The live server publishes manifests off the write path
					// on a cadence; mirror that so sharded runs pay the same
					// manifest cost they would in production.
					return log.ManifestIfDue(env)
				})
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	run.NS = time.Since(t0).Nanoseconds()
	for c, err := range errs {
		if err != nil {
			return run, fmt.Errorf("client %d: %w", c, err)
		}
	}
	staged := perClient * rowsPerStage * clients
	if got := int(log.Seq()); got != staged {
		return run, fmt.Errorf("staged %d entries, log seq %d", staged, got)
	}
	run.EntriesPS = float64(staged) / (float64(run.NS) / 1e9)
	if err := log.Close(); err != nil {
		return run, err
	}

	t0 = time.Now()
	res, err := bench.VerifyLog(dir, audit.VerifyOptions{
		Pub: encl.PublicKey(), Protector: group, Name: "bench",
	})
	run.VerifyNS = time.Since(t0).Nanoseconds()
	if err != nil {
		return run, fmt.Errorf("post-run verification: %w", err)
	}
	run.VerifiedEntries = res.TotalEntries
	run.Manifests = res.Manifests
	run.Epoch = res.Epoch
	run.VerifyOK = res.TotalEntries == staged
	if !run.VerifyOK {
		return run, fmt.Errorf("verified %d entries, want %d", res.TotalEntries, staged)
	}
	return run, nil
}
