package bench

import (
	"fmt"
	"os"
	"sync"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/audit"
	"libseal/internal/core"
	"libseal/internal/enclave"
	"libseal/internal/httpparse"
	"libseal/internal/rote"
	"libseal/internal/telemetry"
)

// GitRequest is the Git workload of the evaluation (§6.4): each worker pushes
// to its own repository, and every tenth request fetches that repository's
// ref advertisement instead.
func GitRequest(worker, seq int) *httpparse.Request {
	repo := fmt.Sprintf("repo%d", worker)
	if seq%10 == 9 {
		return httpparse.NewRequest("GET", "/git/"+repo+"/info/refs", nil)
	}
	return httpparse.NewRequest("POST", "/git/"+repo+"/git-receive-pack",
		[]byte(fmt.Sprintf("update main c%d", seq)))
}

// AuditedRun is what one measured run of a deployment produced.
type AuditedRun struct {
	Result
	// Telemetry is the registry by metric name as the load left it; the
	// registry is reset before the load starts.
	Telemetry map[string]telemetry.Metric
	// Stats are the LibSEAL instance's counters at the same instant (zero in
	// native mode).
	Stats core.Stats
	// Entries is the number of entries the closed log held, all of which the
	// strict post-run verification accepted. Zero unless the stack ran in
	// disk mode.
	Entries int
}

// PerRequest returns a telemetry counter divided by the measured requests.
func (r AuditedRun) PerRequest(counter string) float64 {
	return float64(r.Telemetry[counter].Value) / float64(r.Requests)
}

// RunAudited deploys a stack, drives load against it from persistent clients
// and tears it down. A failed request fails the run. In disk mode the stack
// logs into its audit directory (a fresh one unless opts.Dir is set), and
// once the instance is closed the log is strictly re-verified as an
// auditing client would, down to the entry count — a run whose log does not
// verify is an error, not a measurement.
func RunAudited(opts StackOptions, deploy func(StackOptions) (*Stack, error), load Load) (AuditedRun, error) {
	var run AuditedRun
	st, err := deploy(opts)
	if err != nil {
		return run, err
	}
	defer st.Close()
	load.MakeClient = func(int) *Client { return st.NewClient(true) }

	telemetry.Reset()
	if run.Result, err = load.Run(); err != nil {
		return run, err
	}
	if run.Errors > 0 {
		return run, fmt.Errorf("%d of %d requests failed", run.Errors, run.Errors+run.Requests)
	}
	run.Telemetry = make(map[string]telemetry.Metric)
	for _, m := range telemetry.Snapshot() {
		run.Telemetry[m.Name] = m
	}
	if st.Seal != nil {
		run.Stats = st.Seal.StatsSnapshot()
	}
	if opts.Mode != ModeDisk {
		return run, nil
	}
	// Closing flushes and closes the log; only then is its entry count final.
	if err := st.Seal.Close(); err != nil {
		return run, err
	}
	run.Entries = int(st.Seal.Log().Seq())
	_, err = verifyLog(st.Dir, st.Enclave.PublicKey(), st.Group, run.Entries)
	return run, err
}

// AuditEnv is the audit layer on its own — an enclave behind a synchronous
// bridge, a counter group and a disk-mode sharded log of one table — for the
// sweeps that drive appends directly instead of through TLS and HTTP.
type AuditEnv struct {
	Enclave *enclave.Enclave
	Bridge  *asyncall.Bridge
	Group   *rote.Group
	Dir     string
	Log     *audit.ShardedLog
}

// NewAuditEnv builds the environment on a fresh platform, counter group and
// directory. roteLatency is the simulated one-way latency to the counter
// nodes, which is what makes the per-batch anchor the serial section.
// Every set, one shard included, publishes epoch manifests on a 100 ms
// cadence.
func NewAuditEnv(shards, batchMax int, roteLatency time.Duration) (*AuditEnv, error) {
	encl, err := enclave.NewPlatform().Launch(enclave.Config{
		Code: []byte("libseal-audit-bench"), MaxThreads: 32, Cost: enclave.ZeroCostModel(),
	})
	if err != nil {
		return nil, err
	}
	e := &AuditEnv{Enclave: encl}
	if e.Bridge, err = asyncall.New(encl, asyncall.Config{Mode: asyncall.ModeSync}); err != nil {
		return nil, err
	}
	if e.Group, err = rote.NewGroup(1, roteLatency); err != nil {
		e.Close()
		return nil, err
	}
	if e.Dir, err = os.MkdirTemp("", "libseal-audit-bench-*"); err != nil {
		e.Close()
		return nil, err
	}
	cfg := audit.ShardedConfig{
		Config: audit.Config{
			Name: "bench", Schema: `CREATE TABLE ops (time INTEGER, client INTEGER, op TEXT);`,
			Mode: audit.ModeDisk, Dir: e.Dir, Protector: e.Group,
			BatchMax: batchMax, BatchDelay: audit.MeasuredBatchDelay,
			AnchorTimeout: 5 * time.Second,
		},
		Shards:        shards,
		ManifestEvery: 100 * time.Millisecond,
	}
	if err := e.Bridge.Call(func(env *asyncall.Env) error {
		e.Log, err = audit.NewSharded(env, cfg)
		return err
	}); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// Drive spends an entry budget from clients goroutines, one connection key
// each: a client stages rowsPerStage rows (a request/response pair logs a
// handful of tuples), waits until they are durable and then publishes an
// epoch manifest if one is due — the live server publishes manifests off the
// write path on the same cadence, so runs pay the manifest cost they
// would in production. It returns the entries staged (the budget rounded
// down to whole stages per client), all of them durable, and the wall time.
func (e *AuditEnv) Drive(clients, entries, rowsPerStage int) (int, time.Duration, error) {
	perClient := entries / clients / rowsPerStage
	before := e.Log.Seq()
	errs := make([]error, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rows := make([]audit.Row, rowsPerStage)
			for i := 0; i < perClient && errs[c] == nil; i++ {
				for j := range rows {
					rows[j] = audit.Row{Table: "ops", Values: []any{i, c, "put"}}
				}
				errs[c] = e.Bridge.Call(func(env *asyncall.Env) error {
					tk, err := e.Log.Stage(env, uint64(c), rows)
					if err != nil {
						return err
					}
					if err := tk.Wait(env); err != nil {
						return err
					}
					return e.Log.ManifestIfDue(env)
				})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	for c, err := range errs {
		if err != nil {
			return 0, elapsed, fmt.Errorf("client %d: %w", c, err)
		}
	}
	staged := perClient * rowsPerStage * clients
	if got := int(e.Log.Seq() - before); got != staged {
		return 0, elapsed, fmt.Errorf("staged %d entries, log seq advanced by %d", staged, got)
	}
	return staged, elapsed, nil
}

// Verify closes the log and strictly re-verifies the whole set — every
// shard and the epoch-manifest replay — which must account for every entry
// the log held.
func (e *AuditEnv) Verify() (*audit.Report, error) {
	if err := e.Log.Close(); err != nil {
		return nil, err
	}
	return verifyLog(e.Dir, e.Enclave.PublicKey(), e.Group, int(e.Log.Seq()))
}

// Close releases the log, the bridge and the directory.
func (e *AuditEnv) Close() {
	if e.Log != nil {
		e.Log.Close()
	}
	e.Bridge.Close()
	if e.Dir != "" {
		os.RemoveAll(e.Dir)
	}
}
