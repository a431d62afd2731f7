package main

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"libseal"
	"libseal/internal/asyncall"
	"libseal/internal/audit"
	"libseal/internal/rote"
	"libseal/internal/vfs"
)

// The verify_cold set: written through the live sharded log, one writer per
// shard, one full batch per Stage, a manifest every manifestEveryBatches
// batches of shard 0 — never by timer — so that entries, batches, manifests
// and bytes are the same for every run of one seed.
const (
	verifySetName        = "bench"
	verifySchema         = `CREATE TABLE ops (seq INTEGER, writer INTEGER, op TEXT, payload TEXT);`
	verifyRowsPerStage   = auditBatchMax
	manifestEveryBatches = 256
)

// noSyncFS drops fsync: nobody has to survive a crash of the generator, and
// with 6 250 batches per shard the disk's fsync time would be most of set-up
// and all of its noise.
type noSyncFS struct{ vfs.FS }

func (fs noSyncFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	return noSyncFile{f}, err
}

func (fs noSyncFS) Append(name string) (vfs.File, error) {
	f, err := fs.FS.Append(name)
	return noSyncFile{f}, err
}

type noSyncFile struct{ vfs.File }

func (noSyncFile) Sync() error { return nil }

// generateSet writes entries rows into a fresh 2-shard set in dir. The
// enclave charges nothing, the counter group answers without latency and
// nothing is fsynced: set-up is not what this workload measures, only what
// it must repeat.
func generateSet(dir string, seed int64, entries int) (logSet, error) {
	encl, err := libseal.NewPlatform().Launch(libseal.EnclaveConfig{
		Code: []byte("libseal-benchmark-verify"), MaxThreads: 8, Cost: libseal.ZeroCostModel(),
	})
	if err != nil {
		return logSet{}, err
	}
	bridge, err := libseal.NewBridge(encl, libseal.BridgeConfig{})
	if err != nil {
		return logSet{}, err
	}
	defer bridge.Close()
	group, err := rote.NewGroup(roteFaults, 0)
	if err != nil {
		return logSet{}, err
	}
	cfg := audit.ShardedConfig{
		Config: audit.Config{
			Name: verifySetName, Schema: verifySchema, Mode: audit.ModeDisk, Dir: dir,
			Protector: group, BatchMax: auditBatchMax, FS: noSyncFS{vfs.OS{}},
		},
		Shards: auditShards,
		// Manifests are written by batch count below; the timer never fires.
		ManifestEvery: 24 * time.Hour,
	}
	var log *audit.ShardedLog
	if err := bridge.Call(func(env *asyncall.Env) (err error) {
		log, err = audit.NewSharded(env, cfg)
		return err
	}); err != nil {
		return logSet{}, err
	}

	stages := entries / verifyRowsPerStage / auditShards
	errs := make([]error, auditShards)
	var wg sync.WaitGroup
	for w := 0; w < auditShards; w++ {
		// Find a routing key that lands on shard w.
		key := uint64(0)
		for log.ShardFor(key) != w {
			key++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(w)))
			var payload [24]byte
			rows := make([]audit.Row, verifyRowsPerStage)
			for i := 0; i < stages && errs[w] == nil; i++ {
				for j := range rows {
					rng.Read(payload[:])
					rows[j] = audit.Row{Table: "ops", Values: []any{int64(i*verifyRowsPerStage + j), int64(w), "put", hex.EncodeToString(payload[:])}}
				}
				errs[w] = bridge.Call(func(env *asyncall.Env) error {
					ticket, err := log.Stage(env, key, rows)
					if err != nil {
						return err
					}
					if err := ticket.Wait(env); err != nil {
						return err
					}
					if w == 0 && (i+1)%manifestEveryBatches == 0 {
						return log.WriteManifest(env)
					}
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		log.Close()
		return logSet{}, err
	}
	if err := log.Close(); err != nil {
		return logSet{}, err
	}
	return logSet{dir: dir, encl: encl, group: group}, nil
}

// setCounts is what must repeat exactly across runs of one seed.
type setCounts struct {
	entries, batches, manifests int
	bytes                       int64
}

func countsOf(rep *libseal.Report) setCounts {
	return setCounts{rep.TotalEntries, rep.TotalBatches, rep.Manifests, rep.CommittedBytes}
}

// runVerifyCold measures the auditor's path: libseal.Verify of the whole
// set, cold (no checkpoint), back to back for the window.
func runVerifyCold(o *options) (*report, error) {
	rep := o.newReport()
	var tr *tracer
	if o.trace {
		tr = newTracer()
		tr.on.Store(true)
	}

	set, setupTimes, err := setUpRepeatedly(o,
		func(dir string) (logSet, error) { return generateSet(dir, o.seed, o.verifyEntries) },
		func(s logSet) error { return os.RemoveAll(s.dir) })
	if err != nil {
		return nil, err
	}

	// Gates, untimed: the set verifies, holds what was written, and a
	// verifier that skipped work could not pass the two canaries.
	first, err := set.verify(0)
	if err != nil {
		return nil, fmt.Errorf("generated set does not verify: %w", err)
	}
	want := countsOf(first)
	written := o.verifyEntries / verifyRowsPerStage / auditShards * verifyRowsPerStage * auditShards
	if want.entries != written {
		return nil, fmt.Errorf("generated set holds %d entries, wrote %d", want.entries, written)
	}
	if err := tamperCanary(o.runDir, set, first); err != nil {
		return nil, fmt.Errorf("tamper canary: %w", err)
	}
	rep.Counts = map[string]int{
		"entries": want.entries, "batches": want.batches, "manifests": want.manifests, "bytes": int(want.bytes),
	}

	var iterMs, iterRate []float64
	use0, t0 := readUsage(), time.Now()
	for time.Since(t0) < o.window {
		start := time.Now()
		got, err := set.verify(0)
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", len(iterMs), err)
		}
		if tr != nil {
			tr.observe(tmVerify, start, 0)
		}
		d := time.Since(start)
		if countsOf(got) != want {
			return nil, fmt.Errorf("iteration %d verified %+v, first scan %+v", len(iterMs), countsOf(got), want)
		}
		iterMs = append(iterMs, ms(d))
		iterRate = append(iterRate, float64(want.entries)/d.Seconds())
	}
	use := readUsage()
	rep.Attempted = len(iterMs)

	if !o.trace {
		rep.fill(endToEnd, map[string]float64{
			"throughput_per_s": median(iterRate),
			"op_p50_ms":        median(iterMs),
			"setup_s":          median(setupTimes),
		})
		return rep, nil
	}

	v := map[string]float64{
		"verify.cold_ms":           median(iterMs),
		"verify.mb_per_s":          float64(want.bytes) / 1e6 / (median(iterMs) / 1e3),
		"verify.entries":           float64(want.entries),
		"verify.batches":           float64(want.batches),
		"audit.manifests":          float64(want.manifests),
		"verify.workers":           float64(runtime.GOMAXPROCS(0)),
		"audit.batch_entries_mean": float64(want.entries) / float64(want.batches),
	}
	start := time.Now()
	if _, err := set.verify(1); err != nil {
		return nil, fmt.Errorf("one-worker scan: %w", err)
	}
	v["verify.workers1_entries_per_s"] = float64(want.entries) / time.Since(start).Seconds()
	if v["verify.resume_ms"], err = resumeOnce(set, first); err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	use.perOp(v, use0, float64(len(iterMs)*want.entries))
	o.harnessMetrics(v)
	rep.fill(perLayer, v)
	rep.SpanFile, err = o.writeSpans(tr)
	return rep, err
}

// resumeOnce writes one checkpoint per shard a little past mid-log, then
// times a verification resumed from it.
func resumeOnce(set logSet, first *libseal.Report) (float64, error) {
	opts := set.verifyOptions(0)
	opts.Checkpoint = &libseal.VerifyCheckpointConfig{
		EverySegments: 1 << 30,
		// Entry bytes are a little less than file bytes, so 55 % of a
		// shard's file trips exactly once.
		EveryBytes: first.CommittedBytes / int64(len(first.Shards)) * 55 / 100,
	}
	if _, err := libseal.Verify(set.dir, opts); err != nil {
		return 0, err
	}
	opts = set.verifyOptions(0)
	opts.ResumeAuto = true
	start := time.Now()
	rep, err := libseal.Verify(set.dir, opts)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	if !rep.Resumed || rep.TotalEntries != first.TotalEntries {
		return 0, fmt.Errorf("resumed=%v with %d entries, want a resumed scan of %d", rep.Resumed, rep.TotalEntries, first.TotalEntries)
	}
	return ms(d), nil
}

// tamperCanary proves the verifier does its work on this set: a copy with
// one flipped byte must be ErrTampered, and a copy whose shard 1 is cut back
// to an earlier commit point must be ErrBadCounter.
func tamperCanary(runDir string, set logSet, first *libseal.Report) error {
	shard := func(dir string, k int) string { return filepath.Join(dir, audit.ShardName(verifySetName, k)+".lseal") }

	flipped := logSet{dir: filepath.Join(runDir, "canary-flip"), encl: set.encl, group: set.group}
	if err := copyDir(set.dir, flipped.dir); err != nil {
		return err
	}
	defer os.RemoveAll(flipped.dir)
	data, err := os.ReadFile(shard(flipped.dir, 0))
	if err != nil {
		return err
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(shard(flipped.dir, 0), data, 0o644); err != nil {
		return err
	}
	if _, err := flipped.verify(0); !errors.Is(err, libseal.ErrTampered) {
		return fmt.Errorf("one flipped byte: got %v, want ErrTampered", err)
	}

	// Find a commit point of shard 1 near its middle.
	var cut int64
	opts := set.verifyOptions(0)
	half := first.Shards[1].CommittedBytes / 2
	opts.OnSegment = func(si libseal.VerifySegment) error {
		if si.Shard == 1 && si.CommittedBytes <= half {
			cut = max(cut, si.CommittedBytes)
		}
		return nil
	}
	if _, err := libseal.Verify(set.dir, opts); err != nil {
		return err
	}
	if cut == 0 {
		return errors.New("no commit point in the first half of shard 1")
	}
	rolled := logSet{dir: filepath.Join(runDir, "canary-rollback"), encl: set.encl, group: set.group}
	if err := copyDir(set.dir, rolled.dir); err != nil {
		return err
	}
	defer os.RemoveAll(rolled.dir)
	if err := os.Truncate(shard(rolled.dir, 1), cut); err != nil {
		return err
	}
	if _, err := rolled.verify(0); !errors.Is(err, libseal.ErrBadCounter) {
		return fmt.Errorf("shard 1 rolled back to byte %d: got %v, want ErrBadCounter", cut, err)
	}
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
