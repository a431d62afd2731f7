GO ?= go

.PHONY: all build test check soak mirror-soak bench bench-sweeps bench-e2e-smoke fuzz-smoke sqldb-surface clean

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
	$(GO) test -race -count=20 -run 'TestIncremental|TestMirror.*Commit' ./internal/audit/ ./internal/audit/mirror/

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
# come back ErrTampered / ErrBadCounter; then two seconds of git_check, whose
# check+trim cycle (database trims every cycle, a file compaction when half the
# log's bytes are dead) must flag no violation on the honest service and leave
# a set that verifies strictly afterwards. Exits non-zero if a gate fails.
bench-e2e-smoke:
	$(GO) run ./benchmark --workload verify_cold --seed 1 --seconds 2
	$(GO) run ./benchmark --workload git_check --seed 1 --seconds 2

# Short fuzzing pass over the verifier (every driver against the eager
# reference, under the golden key; seeded from the format-3 golden images and
# the re-hashed-suffix image), the entry codec and the walk that checks an
# entry without building it (against the frozen decoder), the HTTP parser (on
# its own; the in-place parser against the frozen bufio one, with the
# frame-only walk against the building one; the slice-backed Header against
# the frozen map-based one) and the SQL engine (arbitrary scripts: no panic,
# no change on a parse error) — the same smoke CI runs. Seed corpora live
# under testdata/fuzz.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzVerifyReader -fuzztime=20s ./internal/audit/
	$(GO) test -run=^$$ -fuzz=FuzzCodecRoundTrip -fuzztime=20s ./internal/audit/
	$(GO) test -run=^$$ -fuzz=FuzzEntryWalk -fuzztime=20s ./internal/audit/
	$(GO) test -run=^$$ -fuzz=FuzzHTTPParse -fuzztime=20s ./internal/httpparse/
	$(GO) test -run=^$$ -fuzz=FuzzConsumeDifferential -fuzztime=20s ./internal/httpparse/
	$(GO) test -run=^$$ -fuzz=FuzzHeaderDifferential -fuzztime=20s ./internal/httpparse/
	$(GO) test -run=^$$ -fuzz=FuzzParseExec -fuzztime=20s ./internal/sqldb/

# Keeps the SQL engine sized to the SQL the product runs (DESIGN.md §15). It
# measures internal/sqldb's statement coverage from every package's tests
# EXCEPT its own — the four modules' SQL, core, audit, the facade, the two
# harnesses — prints the total and every function those never reach, and
# fails when such a function is not listed below or when the engine's
# non-test files outgrow the budget. A feature that only sqldb's own tests
# use is surplus inside the enclave: delete it, or show the product caller.
#
# Unreached on purpose: the AST marker methods (stmt tbl expr); the reference
# paths the differential tests and `-experiment checks` compare against
# (SetIndexing QueryWithCache); error and corner paths that must stay
# (errHere: a parse error past the lexer; inMember, mergeAscending: the inexact-number
# scans behind the hashed IN set and the hash index; outputCols: a view read
# inside a subquery); and value.go's String, which the entry codec pins.
SQLDB_UNREACHED = stmt tbl expr SetIndexing QueryWithCache errHere inMember mergeAscending outputCols String
SQLDB_MAX_LINES = 3900
SQLDB_COVER = .sqldb-surface.cover

sqldb-surface:
	$(GO) test -short -coverpkg=libseal/internal/sqldb -coverprofile=$(SQLDB_COVER) \
		$$($(GO) list ./... | grep -v '/internal/sqldb$$') > /dev/null
	@$(GO) tool cover -func=$(SQLDB_COVER) | awk -v allow="$(SQLDB_UNREACHED)" ' \
		BEGIN { n = split(allow, a, " "); for (i = 1; i <= n; i++) ok[a[i]] = 1 } \
		$$1 == "total:" { print "internal/sqldb statement coverage from product paths: " $$3; next } \
		$$3 == "0.0%" { print "  never reached: " $$2 " (" $$1 ")"; if (!ok[$$2]) bad = bad " " $$2 } \
		END { if (bad != "") { print "reached by no product path and not in SQLDB_UNREACHED:" bad; exit 1 } }'
	@rm -f $(SQLDB_COVER)
	@lines=$$(ls internal/sqldb/*.go | grep -v _test.go | xargs cat | wc -l); \
		echo "internal/sqldb non-test lines: $$lines (budget $(SQLDB_MAX_LINES))"; \
		test $$lines -le $(SQLDB_MAX_LINES)

clean:
	$(GO) clean ./...
