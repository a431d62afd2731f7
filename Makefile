GO ?= go

.PHONY: all build test check soak mirror-soak bench bench-sweeps bench-e2e-smoke fuzz-smoke surface clean

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
# a degraded episode's probes under a stuck quorum and overload shedding,
# under -race.
soak:
	$(GO) test -race -count=1 -run 'TestChaosRollingRestart|TestChaosDegradedProbe|TestChaosOverload' -v .

# Mirror soak (DESIGN.md §16): a live mirror following a sharded server
# through repeated server-side link drops plus the facade resume-across-
# restart path, under -race. The mirror must reconnect, resume from its
# state file without cold rescans, and end in full agreement with the
# offline verifier. Then the set-rule table: every frame interleaving of a
# compaction, and the adversarial ones, judged as VerifyPath judges the files,
# each also with the mirror process restarted from its state file before
# every step; a state file that cannot be saved failing Stop; and the feed's
# one-goroutine subscriber: a stalled one dropped at the write deadline, and
# Close releasing a pump blocked mid-write.
mirror-soak:
	$(GO) test -race -count=3 -run 'TestChaosMirrorLinkDrops|TestMirrorFacadeResumeAcrossRestart' -v .
	$(GO) test -race -count=1 -run 'TestMirror|TestFeed' ./internal/audit/mirror/
	$(GO) test -race -count=20 -run 'TestIncremental|TestMirror.*Commit' ./internal/audit/ ./internal/audit/mirror/
	$(GO) test -race -count=20 -run 'TestMirrorSetRule|TestMirror.*RestartBefore|TestMirrorStopReportsFailedSave|TestFeed' ./internal/audit/mirror/

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
# no change on a parse error), the manifest sidecar's two readers (the
# offline one, strict and tolerant, against the chunk-fed one: the same
# manifests, stopped at the same place), the sidecar's two verdicts (the
# offline replay against the live set rule, beside a set's shard files; a
# verdict that passes rests on linked, signed records) and the live mirror's frame stream
# (through its own session, and straight into its frame handler without one;
# no more entries verified than VerifyPath accepts of the files the frames
# describe) — the same smoke CI runs. Seed corpora live under
# testdata/fuzz, or are built from the mirror's set-rule table. A new input is
# minimised for at most a second, or the first one found would take the rest
# of the 20 s; each run's last progress line gives its execs.
FUZZ = -run=^$$ -fuzztime=20s -fuzzminimizetime=1s

fuzz-smoke:
	$(GO) test $(FUZZ) -fuzz=FuzzVerifyReader ./internal/audit/
	$(GO) test $(FUZZ) -fuzz=FuzzCodecRoundTrip ./internal/audit/
	$(GO) test $(FUZZ) -fuzz=FuzzEntryWalk ./internal/audit/
	$(GO) test $(FUZZ) -fuzz=FuzzManifestReaders ./internal/audit/
	$(GO) test $(FUZZ) -fuzz=FuzzManifestSidecar ./internal/audit/
	$(GO) test $(FUZZ) -fuzz=FuzzHTTPParse ./internal/httpparse/
	$(GO) test $(FUZZ) -fuzz=FuzzConsumeDifferential ./internal/httpparse/
	$(GO) test $(FUZZ) -fuzz=FuzzHeaderDifferential ./internal/httpparse/
	$(GO) test $(FUZZ) -fuzz=FuzzParseExec ./internal/sqldb/
	$(GO) test $(FUZZ) -fuzz=FuzzMirrorFeed ./internal/audit/mirror/
	$(GO) test $(FUZZ) -fuzz=FuzzMirrorFrames ./internal/audit/mirror/

# The product surface (ROADMAP aim 2): which functions of each package are
# reached by something outside that package. Coverage comes from every
# package's own `go test -short` run, each written to a directory of its own,
# and from one shared product directory: the command test's four binaries
# (cmd/commands_test.go execs them cover-built), `libseal-bench -list` and
# every experiment at the quick budgets, the five examples and
# bench-e2e-smoke's two harness runs. For each package P the directories of
# every run but P's own are merged; every function of P left at 0 % is
# printed, and one that is not on the allowlist below fails the target. A
# function only its own package's tests call has no caller in the product:
# delete it, or give it a caller, or list it here under its reason.
#
# Entries are pkg:func (pkg is the import path without "libseal/"; the root
# package is "libseal"; a method is listed by its name alone).
SURFACE_DIR = .surface

# internal/sqldb (DESIGN.md §15) stays sized to the SQL the product runs, and
# its non-test files within SQLDB_MAX_LINES. Unreached on purpose: the AST
# marker methods (stmt tbl expr); the reference paths the differential tests
# and `-experiment checks` compare against (SetIndexing QueryWithCache); error
# and corner paths that must stay (errHere: a parse error past the lexer;
# inMember: the uncached IN scan the differential tests compare the hashed
# IN set against; outputCols: a view read inside a subquery); and value.go's
# String, which the entry codec pins.
SQLDB_UNREACHED = stmt tbl expr SetIndexing QueryWithCache errHere inMember outputCols String
SQLDB_MAX_LINES = 3600
SURFACE_UNREACHED = $(addprefix internal/sqldb:,$(SQLDB_UNREACHED))

# Interface methods no product path calls: net.Conn, net.Addr, net.Listener
# and net.Error on the simulated network and the native terminator's
# connection; error on audit's located framing error; vfs.FS on the
# fault-injecting file system.
SURFACE_UNREACHED += internal/netsim:Network internal/netsim:String internal/netsim:Addr \
	internal/netsim:LocalAddr internal/netsim:RemoteAddr internal/netsim:SetDeadline \
	internal/netsim:SetReadDeadline internal/netsim:SetWriteDeadline \
	internal/netsim:Error internal/netsim:Timeout internal/netsim:Temporary \
	internal/tlsterm:LocalAddr internal/tlsterm:RemoteAddr internal/tlsterm:SetDeadline \
	internal/tlsterm:SetReadDeadline internal/tlsterm:SetWriteDeadline \
	internal/audit:Error internal/audit:Unwrap internal/faultinject:Remove

# Fault and outside-input paths. Degraded mode's re-anchor retry, which the
# periodic cycle runs while the counter quorum is down (Reanchor, readCounter);
# a readiness probe failing (libseal-server's unhealthy); a file the verifier
# cannot frame (unknownType, errOversized); the mirror's reconnect backoff
# after a failed dial (sleepCtx); a deployment failing
# half-built (bench fail); an enclave torn down under its callers (Destroy);
# a hostile header of more than 16 out-of-order fields (groupSorted) and a
# chunked body read from a stream (copyTo); the chaos harness's fault seams
# (faultinject's node and link faults, WithFaultInjector).
SURFACE_UNREACHED += internal/audit:Reanchor internal/audit:readCounter cmd/libseal-server:unhealthy \
	internal/audit:unknownType internal/audit:errOversized \
	internal/audit/mirror:sleepCtx \
	internal/bench:fail internal/enclave:Destroy \
	internal/httpparse:groupSorted internal/httpparse:copyTo internal/faultinject:ByzantineNode \
	internal/faultinject:DropLink internal/faultinject:ResetLink \
	internal/faultinject:AmnesicRestart libseal:WithFaultInjector

# ROADMAP item 7: the status page and span API read the metric registry
# through the facade's MetricsSnapshot, SetMetricsEnabled and ResetMetrics.
SURFACE_UNREACHED += libseal:MetricsSnapshot libseal:SetMetricsEnabled libseal:ResetMetrics

# benchmark/ is the referee, edited only by a benchmark PR (ROADMAP item 2).
# bench-e2e-smoke's two runs take none of its driver-facing inputs: the diff
# mode that judges two result files, -trace and its span files, -out and the
# machine block it writes, and verify_cold's resume cell.
SURFACE_UNREACHED += $(addprefix benchmark:,allAbove judge loadRuns loadSpec printDiff runDiff \
	Accept Append Create Handle HandlePair Increment IncrementContext Read ReadContext Rename \
	Sync Write add calls count event meanMs meanUs ms newTracer observe replayParse reqID \
	writeSpans appendTo harnessMetrics dirBytes peakRSSMB perOp quartileSpread acked resumeOnce)

surface:
	@rm -rf $(SURFACE_DIR) && mkdir -p $(SURFACE_DIR)/product $(SURFACE_DIR)/pkg
	@root=$$(pwd); for p in $$($(GO) list ./... | grep -vx libseal/cmd); do \
		d=$$root/$(SURFACE_DIR)/pkg/$$(echo $$p | tr / _); mkdir -p $$d; \
		$(GO) test -short -count=1 -cover -coverpkg=./... $$p -args -test.gocoverdir=$$d > $(SURFACE_DIR)/test.out 2>&1 \
			|| { cat $(SURFACE_DIR)/test.out; exit 1; }; \
	done
	@export GOCOVERDIR=$$(pwd)/$(SURFACE_DIR)/product; \
		$(GO) test -short -count=1 ./cmd/ && \
		$(GO) run -cover -coverpkg=./... ./cmd/libseal-bench -list > /dev/null && \
		$(GO) run -cover -coverpkg=./... ./cmd/libseal-bench -experiment all -quick -out $(SURFACE_DIR)/bench.json > /dev/null && \
		for e in quickstart git-audit owncloud-audit dropbox-audit messaging-audit; do \
			$(GO) run -cover -coverpkg=./... ./examples/$$e > /dev/null || exit 1; done && \
		$(GO) run -cover -coverpkg=./... ./benchmark --workload verify_cold --seed 1 --seconds 2 > /dev/null && \
		$(GO) run -cover -coverpkg=./... ./benchmark --workload git_check --seed 1 --seconds 2 > /dev/null
	@for p in $$($(GO) list ./... | grep -vx libseal/cmd); do \
		own=$(SURFACE_DIR)/pkg/$$(echo $$p | tr / _); \
		dirs=$$(ls -d $(SURFACE_DIR)/product $(SURFACE_DIR)/pkg/* | grep -vx $$own | paste -sd, -); \
		$(GO) tool covdata textfmt -i=$$dirs -pkg=$$p -o $(SURFACE_DIR)/p.txt && \
		$(GO) tool cover -func=$(SURFACE_DIR)/p.txt | awk -v pkg=$${p#libseal/} '$$1 != "total:" && $$3 == "0.0%" { print pkg ":" $$2 " (" $$1 ")" }'; \
	done > $(SURFACE_DIR)/unreached.txt
	@awk -v allow="$(SURFACE_UNREACHED)" ' \
		BEGIN { n = split(allow, a, " "); for (i = 1; i <= n; i++) ok[a[i]] = 1 } \
		{ total++; if (ok[$$1]) print "  allow-listed: " $$0; else { print "  NOT ALLOWED:  " $$0; bad++ } } \
		END { print total " functions reached by nothing outside their own package, " total - bad " of them allow-listed"; \
			if (bad) { print bad " not in SURFACE_UNREACHED: delete them, call them, or list them under a reason"; exit 1 } }' \
		$(SURFACE_DIR)/unreached.txt
	@lines=$$(ls internal/sqldb/*.go | grep -v _test.go | xargs cat | wc -l); \
		echo "internal/sqldb non-test lines: $$lines (budget $(SQLDB_MAX_LINES))"; \
		test $$lines -le $(SQLDB_MAX_LINES)
	@rm -rf $(SURFACE_DIR)

clean:
	$(GO) clean ./...
