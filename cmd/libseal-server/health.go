package main

import (
	"encoding/json"
	"net/http"
	"sort"
)

// checkResult is one health probe's outcome.
type checkResult struct {
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// healthy builds a passing result.
func healthy(detail string) checkResult { return checkResult{OK: true, Detail: detail} }

// unhealthy builds a failing result.
func unhealthy(detail string) checkResult { return checkResult{OK: false, Detail: detail} }

// probe reports one component's current health. Probes must be fast and
// non-blocking: they run on every scrape of the health endpoints.
type probe func() checkResult

// health holds the server's liveness and readiness probes, served over HTTP.
// Liveness (/healthz) answers "is this process functional at all" — a
// failure means restart me. Readiness (/readyz) answers "should traffic be
// routed here right now" — a failure means the instance is up but degraded
// (a ROTE quorum short, the audit log running on a stale anchor), and a load
// balancer should prefer a healthy peer. The probes are registered before
// the endpoints are mounted and never change after.
type health struct {
	live, ready map[string]probe
}

// healthReport is the JSON body of a health endpoint response.
type healthReport struct {
	Status string                 `json:"status"` // "ok" or "unavailable"
	Checks map[string]checkResult `json:"checks"`
}

// evaluate runs every probe in the set, in name order, and reports the
// aggregate.
func evaluate(set map[string]probe) healthReport {
	rep := healthReport{Status: "ok", Checks: make(map[string]checkResult, len(set))}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res := set[name]()
		rep.Checks[name] = res
		if !res.OK {
			rep.Status = "unavailable"
		}
	}
	return rep
}

// probeHandler renders one probe set as an HTTP response: 200 when every probe
// passes, 503 otherwise, with the per-check JSON either way.
func probeHandler(set map[string]probe) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep := evaluate(set)
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if rep.Status != "ok" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep) // encoding/json sorts map keys: deterministic body
	})
}

// mount attaches the health endpoints to a mux under the conventional
// paths /healthz and /readyz.
func (h *health) mount(mux *http.ServeMux) {
	mux.Handle("/healthz", probeHandler(h.live))
	mux.Handle("/readyz", probeHandler(h.ready))
}
