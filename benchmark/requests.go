package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"libseal"
	"libseal/internal/core"
	"libseal/internal/enclave"
)

// throughputWindows is how many equal sub-windows the measurement is cut
// into; throughput_per_s is the median over them.
const throughputWindows = 6

// deployment is one set-up stack with its connected, pre-filled clients.
type deployment struct {
	st      *stack
	clients []*client
}

// setUp deploys the stack, connects every client (one handshake each), sends
// the workload's pre-fill and runs the closed loop for the warm-up, whose
// samples are discarded. This is what setup_s times.
func setUp(o *options, dir string, tr *tracer) (*deployment, error) {
	checkEvery := 0
	if o.workload == "git_check" {
		checkEvery = gitCheckEvery
	}
	st, err := deploy(dir, checkEvery, tr)
	if err != nil {
		return nil, err
	}
	d := &deployment{st: st}
	n := clientCount()
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		c := &client{st: st, gen: newGenerator(o.workload, o.seed, i, n)}
		d.clients = append(d.clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.connect(); err != nil {
				c.gateErr = fmt.Errorf("client %d: connect: %w", c.gen.client, err)
				return
			}
			for _, r := range c.gen.prefill() {
				c.do(r, t0)
			}
		}()
	}
	wg.Wait()
	d.drive(t0, time.Since(t0)+o.warmup)
	for _, c := range d.clients {
		if c.gateErr != nil {
			d.tearDown()
			return nil, c.gateErr
		}
		c.samples = c.samples[:0]
	}
	return d, nil
}

// drive runs every client's closed loop until until (measured from t0) and
// returns once all of them have stopped.
func (d *deployment) drive(t0 time.Time, until time.Duration) {
	var wg sync.WaitGroup
	for _, c := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c.gateErr == nil && time.Since(t0) < until {
				c.do(c.gen.next(), t0)
			}
		}()
	}
	wg.Wait()
}

// tearDown closes the clients, then the stack.
func (d *deployment) tearDown() error {
	for _, c := range d.clients {
		c.disconnect()
	}
	return d.st.close()
}

// snapshot is what the coordinator reads at a window boundary.
type snapshot struct {
	use  usage
	encl enclave.StatsSnapshot
	core core.Stats
}

func (d *deployment) snapshot() snapshot {
	return snapshot{readUsage(), d.st.encl.Stats(), d.st.seal.StatsSnapshot()}
}

// acked is the number of requests acknowledged since deploy.
func (d *deployment) acked() int {
	n := 0
	for _, c := range d.clients {
		n += c.attempted - c.failed
	}
	return n
}

// absorb adds a deployment's request accounting to the report. Failures in
// a set-up that was only timed and thrown away count like any other.
func (rep *report) absorb(d *deployment) {
	for _, c := range d.clients {
		rep.Attempted += c.attempted
		rep.Failed += c.failed
		rep.Failures = append(rep.Failures, c.failures...)
	}
	rep.Failures = rep.Failures[:min(len(rep.Failures), keptFailures)]
}

// runRequests runs one of the three request workloads.
func runRequests(o *options) (*report, error) {
	rep := o.newReport()
	var tr *tracer
	if o.trace {
		tr = newTracer()
		libseal.RegisterTrace("benchmark", tr.event)
		defer libseal.UnregisterTrace("benchmark")
	}

	dep, setupTimes, err := setUpRepeatedly(o,
		func(dir string) (*deployment, error) { return setUp(o, dir, tr) },
		func(d *deployment) error {
			rep.absorb(d)
			return d.tearDown()
		})
	if err != nil {
		return nil, err
	}

	// The window follows the kept set-up's warm-up on the same connections.
	// A traced run first measures an untraced slice, against which the
	// tracing overhead is read.
	base := time.Duration(0)
	if tr != nil {
		base = o.window / 3
	}
	t0 := time.Now()
	winStart, winEnd := base, base+o.window
	done := make(chan struct{})
	go func() {
		dep.drive(t0, winEnd)
		close(done)
	}()
	time.Sleep(winStart - time.Since(t0))
	if tr != nil {
		tr.on.Store(true)
	}
	before := dep.snapshot()
	time.Sleep(winEnd - time.Since(t0))
	after := dep.snapshot()
	if tr != nil {
		tr.on.Store(false)
	}
	<-done

	// Gather what needs the live stack, then close it and re-verify.
	st := dep.st
	rep.absorb(dep)
	var inWin, baseWin []sample
	for _, c := range dep.clients {
		if c.gateErr != nil {
			dep.tearDown()
			return nil, c.gateErr
		}
		for _, s := range c.samples {
			switch {
			case s.end >= winStart && s.end < winEnd:
				inWin = append(inWin, s)
			case s.end < winStart:
				baseWin = append(baseWin, s)
			}
		}
	}
	rows, rowsErr := retainedRows(st)
	final := st.seal.StatsSnapshot()
	violations := st.seal.Violations()
	if err := dep.tearDown(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if len(violations) > 0 {
		return nil, fmt.Errorf("the honest service was flagged: %d violations, first %q", len(violations), violations[0].Invariant)
	}
	verifyStart := time.Now()
	vrep, err := st.verify(0)
	verifyTime := time.Since(verifyStart)
	if err != nil {
		return nil, fmt.Errorf("post-run verification: %w", err)
	}
	if final.Trims == 0 && int64(vrep.TotalEntries) != final.Tuples {
		return nil, fmt.Errorf("post-run verification: %d entries on disk, %d tuples acknowledged", vrep.TotalEntries, final.Tuples)
	}
	if len(inWin) == 0 {
		return nil, errors.New("no request completed inside the window")
	}

	reqs := float64(len(inWin))
	lat := sortByLatency(inWin)
	opP50 := lat.p50(func(s sample) bool {
		return !s.reconnect && !s.check && (o.workload != "static_mix" || s.kind == kSmall)
	})
	if !o.trace {
		rep.fill(endToEnd, map[string]float64{
			"throughput_per_s": windowedRate(inWin, winStart, o.window),
			"op_p50_ms":        opP50,
			"setup_s":          median(setupTimes),
		})
		return rep, nil
	}

	// Per-layer table.
	v := map[string]float64{}
	per := func(x float64) float64 { return x / reqs }
	switch o.workload {
	case "static_mix":
		v["client.small_p50_ms"] = opP50
		v["client.large_p50_ms"] = lat.p50(func(s sample) bool { return s.kind == kLarge })
		v["client.reconnect_p50_ms"] = lat.p50(func(s sample) bool { return s.reconnect })
		// Elsewhere every handshake happened in set-up, before tracing.
		v["tlsterm.accept_ms"] = tr.meanMs(tmAccept)
	case "git_check":
		v["client.check_p50_ms"] = lat.p50(func(s sample) bool { return s.check })
	}
	v["tlsterm.write_us_per_req"] = per(tr.ms(tmTLSWrite) * 1e3)
	v["tlsterm.write_calls_per_req"] = per(tr.calls(tmTLSWrite))
	v["tlsterm.bytes_out_per_req"] = per(tr.count(ctTLSBytesOut))
	ecalls := float64(after.encl.Ecalls - before.encl.Ecalls)
	ocalls := float64(after.encl.Ocalls - before.encl.Ocalls)
	// One ecall or ocall is two boundary crossings (in and out).
	transitions := 2 * (ecalls + ocalls)
	v["enclave.ecalls_per_req"] = per(ecalls)
	v["enclave.ocalls_per_req"] = per(ocalls)
	v["enclave.transitions_per_req"] = per(transitions)
	v["enclave.transition_us_per_req"] = per(transitions * float64(o.machine.CostModel.TransitionCost(1).Nanoseconds()) / 1e3)
	v["httpparse.consume_us_per_req"] = tr.replayParse()
	v["ssm.handle_pair_us"] = tr.meanUs(tmSSM)
	v["ssm.tuples_per_req"] = per(tr.count(ctTuples))
	v["services.handle_us_per_req"] = tr.meanUs(tmHandle)
	checks := float64(after.core.Checks - before.core.Checks)
	trims := float64(after.core.Trims - before.core.Trims)
	v["core.pairs"] = float64(after.core.Pairs - before.core.Pairs)
	v["core.checks"] = checks
	v["core.trims"] = trims
	v["sqldb.rows_retained"] = missing
	if rowsErr == nil {
		v["sqldb.rows_retained"] = float64(rows)
	}
	if checks > 0 {
		v["core.check_cycle_ms"] = tr.meanMs(tmCheck)
		v["sqldb.invariant_ms"] = missing
		if tr.calls(tmInvariant) > 0 {
			v["sqldb.invariant_ms"] = tr.ms(tmInvariant) / checks
		}
	}
	if trims > 0 {
		v["audit.trim_ms"] = tr.meanMs(tmTrim)
		v["vfs.rewrite_bytes_per_trim"] = tr.count(ctVfsRewriteBytes) / trims
	}
	if tr.count(ctTuples) > 0 {
		v["audit.append_ms"] = tr.meanMs(tmAppend)
		v["rote.increment_ms"] = tr.meanMs(tmRoteIncrement)
		v["vfs.sync_ms"] = tr.meanMs(tmVfsSync)
		// What is left of the append path after its two waits: encode,
		// chain, sign, batch-fill wait and lock waits.
		v["audit.residual_ms_per_req"] = per(tr.ms(tmAppend) - tr.ms(tmRoteIncrement) - tr.ms(tmVfsSync) - tr.ms(tmVfsWrite))
	}
	if vrep.TotalBatches > 0 {
		v["audit.batch_entries_mean"] = float64(vrep.TotalEntries) / float64(vrep.TotalBatches)
		busiest := 0
		for _, sh := range vrep.Shards {
			busiest = max(busiest, sh.TotalEntries)
		}
		v["audit.busiest_shard_share"] = 100 * float64(busiest) / float64(vrep.TotalEntries)
		v["verify.postrun_entries_per_s"] = float64(vrep.TotalEntries) / verifyTime.Seconds()
	}
	logBytes, err := dirBytes(st.dir)
	if err != nil {
		return nil, err
	}
	v["audit.manifests"] = float64(vrep.Manifests)
	v["audit.log_bytes_per_req"] = float64(logBytes) / float64(dep.acked())
	v["rote.increments_per_req"] = per(tr.calls(tmRoteIncrement))
	v["rote.reads"] = tr.calls(tmRoteRead)
	v["vfs.syncs_per_req"] = per(tr.calls(tmVfsSync))
	v["vfs.writes_per_req"] = per(tr.calls(tmVfsWrite))
	v["vfs.write_bytes_per_req"] = per(tr.count(ctVfsWriteBytes))
	v["vfs.renames"] = tr.count(ctVfsRenames)
	v["harness.req_p99_ms"] = quantile(lat.ms(nil), 0.99)
	v["harness.req_p99_samples"] = reqs
	after.use.perOp(v, before.use, reqs)
	if len(baseWin) > 0 {
		untraced := float64(len(baseWin)) / base.Seconds()
		v["trace.overhead_pct"] = 100 * (untraced - reqs/o.window.Seconds()) / untraced
	}
	o.harnessMetrics(v)
	rep.fill(perLayer, v)
	rep.SpanFile, err = o.writeSpans(tr)
	return rep, err
}

// retainedRows counts the rows the audit database still holds.
func retainedRows(st *stack) (int64, error) {
	var total int64
	for _, table := range []string{"updates", "advertisements"} {
		res, err := st.seal.Log().Query("SELECT COUNT(*) FROM " + table)
		if err != nil {
			return 0, err
		}
		total += res.Rows[0][0].Int64()
	}
	return total, nil
}

// windowedRate is the median over the sub-windows of completions per second.
func windowedRate(in []sample, start, window time.Duration) float64 {
	sub := window / throughputWindows
	counts := make([]float64, throughputWindows)
	for _, s := range in {
		counts[min(int((s.end-start)/sub), throughputWindows-1)]++
	}
	for i := range counts {
		counts[i] /= sub.Seconds()
	}
	return median(counts)
}

// byLatency holds the window's samples sorted by latency.
type byLatency []sample

func sortByLatency(in []sample) byLatency {
	out := append(byLatency(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i].lat < out[j].lat })
	return out
}

// ms returns the latencies, in ms and ascending, of the samples keep
// accepts (all of them when keep is nil).
func (l byLatency) ms(keep func(sample) bool) []float64 {
	var vals []float64
	for _, s := range l {
		if keep == nil || keep(s) {
			vals = append(vals, ms(s.lat))
		}
	}
	return vals
}

// p50 is the median latency in ms of the samples keep accepts; 0 if none.
func (l byLatency) p50(keep func(sample) bool) float64 {
	vals := l.ms(keep)
	if len(vals) == 0 {
		return 0
	}
	return quantile(vals, 0.5)
}
