package bench

import (
	"fmt"
	"sync"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/audit"
	"libseal/internal/core"
	"libseal/internal/httpparse"
	"libseal/internal/ssm/gitssm"
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
	rep, err := st.Verify()
	if err != nil {
		return run, err
	}
	run.Entries = rep.TotalEntries
	return run, nil
}

// NewLogStack deploys LibSEAL alone: a disk-mode instance with the Git
// module and no front end, built like every other stack, for the sweeps that
// drive its audit log directly (Drive).
func NewLogStack(opts StackOptions) (*Stack, error) {
	opts.Mode = ModeDisk
	st, _, err := buildStack(opts, gitssm.New())
	return st, err
}

// Drive spends an entry budget on a disk-mode stack's audit log from clients
// goroutines, one connection key each: a client stages rowsPerStage Git
// updates rows (a request/response pair logs a handful of tuples), waits
// until they are durable and then publishes an epoch manifest if one is due,
// as the request path does after its waits, so runs pay the manifest cost
// they would in production. It stages directly, not through TLS and HTTP:
// the sweeps that drive it ask how the log scales, which TLS CPU on a small
// box would hide. It returns the entries staged (the budget rounded down to
// whole stages per client), all of them durable, and the wall time.
func (s *Stack) Drive(clients, entries, rowsPerStage int) (int, time.Duration, error) {
	log := s.Seal.Log()
	perClient := entries / clients / rowsPerStage
	before := log.Seq()
	errs := make([]error, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			repo := fmt.Sprintf("repo%d", c)
			rows := make([]audit.Row, rowsPerStage)
			for i := 0; i < perClient && errs[c] == nil; i++ {
				for j := range rows {
					cid := fmt.Sprintf("c%d", i*rowsPerStage+j)
					rows[j] = audit.Row{Table: "updates", Values: []any{i, repo, "main", cid, "update"}}
				}
				errs[c] = s.Bridge.Call(func(env *asyncall.Env) error {
					tk, err := log.Stage(env, uint64(c), rows)
					if err != nil {
						return err
					}
					if err := tk.Wait(env); err != nil {
						return err
					}
					return log.ManifestIfDue(env)
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
	if got := int(log.Seq() - before); got != staged {
		return 0, elapsed, fmt.Errorf("staged %d entries, log seq advanced by %d", staged, got)
	}
	return staged, elapsed, nil
}
