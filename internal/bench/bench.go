// Package bench provides the workload harness of the evaluation: the
// deployments of the evaluated services, an HTTP client speaking the
// secure-channel protocol, a closed-loop load driver with latency
// statistics, the audited run every disk-mode measurement goes through, a
// driver that stages Git rows straight into a stack's audit log, and
// per-service request streams. cmd/libseal-bench builds every experiment
// from it.
//
// A deployment is described, not assembled: StackOptions names the
// evaluation mode, the enclave and bridge sizing, the counter group and any
// further libseal.Options, and every LibSEAL instance — with it every audit
// log the harness measures, a log-only stack's included — is built by
// libseal.Open, the constructor libseal-server uses, so a measured
// configuration is one a server can run. Checks and trims are core's own
// cycle; the harness has none of its own.
package bench

import (
	"errors"
	"net"
	"sort"
	"sync"
	"time"

	"libseal/internal/httpparse"
	"libseal/internal/testutil"
	"libseal/internal/tlsterm"
)

// Client is the workload HTTP client; it lives in testutil so service tests
// can use it without import cycles.
type Client = testutil.HTTPClient

// NewClient builds a client. With persistent=false every request uses a
// fresh connection and pays a full handshake — the worst case measured in
// §6.6.
func NewClient(dial func() (net.Conn, error), cfg *tlsterm.ClientConfig, persistent bool) *Client {
	return testutil.NewHTTPClient(dial, cfg, persistent)
}

// Result aggregates a load run.
type Result struct {
	Requests   int
	Errors     int
	Elapsed    time.Duration
	Throughput float64 // requests per second
	Latency    LatencyStats
}

// LatencyStats summarises per-request latency.
type LatencyStats struct {
	Mean, P50, P95, P99, Min, Max time.Duration
}

func summarise(samples []time.Duration) LatencyStats {
	if len(samples) == 0 {
		return LatencyStats{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	pct := func(p float64) time.Duration {
		idx := int(p * float64(len(samples)-1))
		return samples[idx]
	}
	return LatencyStats{
		Mean: sum / time.Duration(len(samples)),
		P50:  pct(0.50),
		P95:  pct(0.95),
		P99:  pct(0.99),
		Min:  samples[0],
		Max:  samples[len(samples)-1],
	}
}

// Load describes a closed-loop run: Clients workers each issue requests
// back-to-back until the shared request budget is exhausted.
type Load struct {
	// Clients is the number of concurrent workers.
	Clients int
	// Requests is the total request budget across workers.
	Requests int
	// Warmup requests are issued but excluded from statistics.
	Warmup int
	// MakeClient builds one worker's client.
	MakeClient func(worker int) *Client
	// MakeRequest produces the i-th request for a worker.
	MakeRequest func(worker, seq int) *httpparse.Request
	// Validate, when set, checks each response; failures count as errors.
	Validate func(rsp *httpparse.Response) error
}

// Run executes the closed loop and aggregates results.
func (ld Load) Run() (Result, error) {
	if ld.Clients <= 0 || ld.Requests <= 0 || ld.MakeClient == nil || ld.MakeRequest == nil {
		return Result{}, errors.New("bench: incomplete load spec")
	}
	var mu sync.Mutex
	var samples []time.Duration
	errCount := 0

	var budget = make(chan int, ld.Requests+ld.Warmup)
	for i := 0; i < ld.Requests+ld.Warmup; i++ {
		budget <- i
	}
	close(budget)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < ld.Clients; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			client := ld.MakeClient(worker)
			defer client.Close()
			seq := 0
			for global := range budget {
				req := ld.MakeRequest(worker, seq)
				seq++
				t0 := time.Now()
				rsp, err := client.Do(req)
				lat := time.Since(t0)
				if err == nil && ld.Validate != nil {
					err = ld.Validate(rsp)
				}
				warm := global < ld.Warmup
				mu.Lock()
				if err != nil {
					errCount++
				} else if !warm {
					samples = append(samples, lat)
				}
				mu.Unlock()
				if err != nil {
					// A failed connection cannot be reused.
					client.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := Result{
		Requests: len(samples),
		Errors:   errCount,
		Elapsed:  elapsed,
		Latency:  summarise(samples),
	}
	if elapsed > 0 {
		res.Throughput = float64(len(samples)) / elapsed.Seconds()
	}
	return res, nil
}
