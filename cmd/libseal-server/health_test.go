package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// getHealth serves one GET of path through mux and decodes the report.
func getHealth(t *testing.T, mux *http.ServeMux, path string) (int, healthReport) {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	var rep healthReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("%s: bad JSON: %v", path, err)
	}
	return rec.Code, rep
}

func TestHealthHandlers(t *testing.T) {
	ready := true
	h := &health{
		live: map[string]probe{"proc": func() checkResult { return healthy("up") }},
		ready: map[string]probe{"quorum": func() checkResult {
			if ready {
				return healthy("4/4 nodes")
			}
			return unhealthy("1/4 nodes")
		}},
	}
	mux := http.NewServeMux()
	h.mount(mux)

	if code, rep := getHealth(t, mux, "/healthz"); code != 200 || rep.Status != "ok" {
		t.Fatalf("healthz = %d %+v", code, rep)
	}
	if code, rep := getHealth(t, mux, "/readyz"); code != 200 || !rep.Checks["quorum"].OK {
		t.Fatalf("readyz = %d %+v", code, rep)
	}

	ready = false
	code, rep := getHealth(t, mux, "/readyz")
	if code != http.StatusServiceUnavailable || rep.Status != "unavailable" {
		t.Fatalf("degraded readyz = %d %+v", code, rep)
	}
	if rep.Checks["quorum"].Detail != "1/4 nodes" {
		t.Fatalf("detail = %q", rep.Checks["quorum"].Detail)
	}
	// Liveness is independent of readiness.
	if code, _ := getHealth(t, mux, "/healthz"); code != 200 {
		t.Fatalf("healthz while unready = %d", code)
	}
}
