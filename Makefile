GO ?= go

.PHONY: all build test check soak mirror-soak bench bench-json bench-compare bench-e2e-smoke bench-shards bench-check bench-mirror fuzz-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full gate: static checks plus the whole suite (chaos soak included)
# under the race detector. Use `go test -short ./...` to skip the
# long-running determinism replay.
check:
	$(GO) vet ./...
	$(GO) test -race ./...

# Resilience soak (DESIGN.md §12): rolling amnesic counter-node restarts,
# the circuit-breaker lifecycle and overload shedding, under -race.
soak:
	$(GO) test -race -count=1 -run 'TestChaosRollingRestart|TestChaosBreaker|TestChaosOverload' -v .

# Mirror soak (DESIGN.md §16): a live mirror following a sharded server
# through repeated server-side link drops plus the facade resume-across-
# restart path, under -race. The mirror must reconnect, resume from its
# checkpoint without cold rescans, and end in full agreement with the
# offline verifier.
mirror-soak:
	$(GO) test -race -count=3 -run 'TestChaosMirrorLinkDrops|TestMirrorFacadeResumeAcrossRestart' -v .
	$(GO) test -race -count=1 -run 'TestMirror|TestFeed' ./internal/audit/mirror/

bench:
	$(GO) test -bench=. -benchmem -benchtime=2x ./...

# Machine-readable bench: sweeps the audited Git workload over
# {batch off/on} x {sync/async bridge} x {1,4,16 clients}, verifies every
# log produced, and writes per-run throughput, append latency quantiles and
# fsync/signature/counter costs per request.
bench-json:
	$(GO) run ./cmd/libseal-bench -json BENCH_pr4.json

# Same sweep, but quick (smaller request budget): prints the batching
# off/on delta table per bridge mode and client count.
bench-compare:
	$(GO) run ./cmd/libseal-bench -json /tmp/libseal-bench-compare.json -quick

# End-to-end harness smoke (benchmark/README.md): two seconds of the
# auditor's workload — cold, one-worker and resumed verification of a sharded
# set — behind the harness's gates, including the tamper canary that must
# come back ErrTampered / ErrBadCounter. Exits non-zero if a gate fails.
bench-e2e-smoke:
	$(GO) run ./benchmark --workload verify_cold --seed 1 --seconds 2

# Sharded-append sweep (DESIGN.md §14): aggregate append throughput at
# 1/2/4/8 audit-log shards under 16 clients over a 500us-latency counter
# quorum, each run strictly re-verified including epoch-manifest replay.
bench-shards:
	$(GO) run ./cmd/libseal-bench -shards-json BENCH_pr8.json

# Snapshot-check sweep (DESIGN.md §15): full-check latency over a growing
# multi-repo Git audit database with hash indexes on vs off, plus audited
# append throughput with no / synchronous / asynchronous periodic checks,
# each disk run strictly re-verified.
bench-check:
	$(GO) run ./cmd/libseal-bench -check-json BENCH_pr9.json

# Live-mirror sweep (DESIGN.md §16): append throughput with and without one
# attached mirror (acceptance: mirrored >= 0.95x unmirrored), the mirror's
# catch-up time, and truncate-to-verdict rollback detection latency through
# a reconnect.
bench-mirror:
	$(GO) run ./cmd/libseal-bench -mirror-json BENCH_pr10.json

# Short fuzzing pass over the verifier, the entry codec and the HTTP
# parser — the same smoke CI runs. Seed corpora live under testdata/fuzz.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzVerifyReader -fuzztime=20s ./internal/audit/
	$(GO) test -run=^$$ -fuzz=FuzzCodecRoundTrip -fuzztime=20s ./internal/audit/
	$(GO) test -run=^$$ -fuzz=FuzzHTTPParse -fuzztime=20s ./internal/httpparse/

clean:
	$(GO) clean ./...
