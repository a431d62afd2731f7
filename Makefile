GO ?= go

.PHONY: all build test check soak mirror-soak bench bench-sweeps bench-e2e-smoke fuzz-smoke clean

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

# Every experiment of cmd/libseal-bench — the paper's tables and figures and
# the four post-paper sweeps — at the quick budgets, printed as tables
# (`libseal-bench -list` names them; EXPERIMENTS.md says what to expect).
bench:
	$(GO) run ./cmd/libseal-bench -experiment all -quick

# The four post-paper sweeps at their full budgets, written with the machine
# block to BENCH_sweeps.json: group commit (batching x bridge mode x clients
# over the audited Git deployment), sharded append (1/2/4/8 shards), snapshot
# checks (scan vs indexed check latency; append without/with check+trim cycles)
# and the live mirror (append overhead, rollback detection latency). Every
# disk log a sweep writes is strictly re-verified, entry count included.
bench-sweeps:
	$(GO) run ./cmd/libseal-bench -experiment groupcommit,shards,checks,mirror -out BENCH_sweeps.json

# End-to-end harness smoke (benchmark/README.md): two seconds of the
# auditor's workload — cold, one-worker and resumed verification of a sharded
# set — behind the harness's gates, including the tamper canary that must
# come back ErrTampered / ErrBadCounter. Exits non-zero if a gate fails.
bench-e2e-smoke:
	$(GO) run ./benchmark --workload verify_cold --seed 1 --seconds 2

# Short fuzzing pass over the verifier, the entry codec and the HTTP
# parser (on its own, and the in-place parser against the frozen bufio one) —
# the same smoke CI runs. Seed corpora live under testdata/fuzz.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzVerifyReader -fuzztime=20s ./internal/audit/
	$(GO) test -run=^$$ -fuzz=FuzzCodecRoundTrip -fuzztime=20s ./internal/audit/
	$(GO) test -run=^$$ -fuzz=FuzzHTTPParse -fuzztime=20s ./internal/httpparse/
	$(GO) test -run=^$$ -fuzz=FuzzConsumeDifferential -fuzztime=20s ./internal/httpparse/

clean:
	$(GO) clean ./...
