// Package core implements LibSEAL itself: the secure audit library that
// terminates TLS connections inside a trusted execution environment, logs
// service-relevant request/response data into a tamper-evident relational
// audit log, and checks service integrity invariants expressed as SQL
// queries (paper §3, Fig. 1).
//
// A LibSEAL instance owns an enclave bridge, the enclave-resident TLS
// library, the audit log and one service-specific module. Services obtain
// TLS connections via TLS().NewSSL and otherwise remain unmodified — the
// interception, pairing, logging, checking and trimming all happen inside
// the SSL_read/SSL_write path.
//
// # Locking
//
// Connection state is sharded: each connection's parse/pair buffers are
// guarded by that connection's own tracker mutex, so independent
// connections extract requests and pair responses in parallel. Pairs enter
// the commit sequence under a single narrow log-order lock (logMu) that
// covers only SSM tuple extraction and staging into the audit log — the
// point that fixes the order of entries in the hash chain — plus the
// check/trim bookkeeping. Durability waits happen outside both locks, which
// is what lets concurrent connections fill one group-commit batch. The lock
// hierarchy is tracker → logMu → audit-internal, and every enclave-side
// acquisition of a lock that may be contended goes through asyncall.Lock so
// no lthread ever sleeps holding its scheduler's thread. cycleMu, which keeps
// check+trim cycles from overlapping, sits above logMu and is only ever
// taken by a caller that holds no other lock and leads no open batch (see
// runCycle). One extra rule keeps
// group commit deadlock-free against a compaction (which quiesces the commit
// lane while holding logMu): all pairs of one write are staged within a single
// logMu critical section, and logMu is not re-acquired until every resulting
// ticket has been waited — a pending batch leader never blocks on logMu.
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/audit"
	"libseal/internal/httpparse"
	"libseal/internal/sqldb"
	"libseal/internal/ssm"
	"libseal/internal/telemetry"
	"libseal/internal/tlsterm"
	"libseal/internal/vfs"
)

// Invariant-check telemetry: check latency is the paper's headline cost for
// in-band integrity verification (§7.3). Per-invariant histograms are
// registered at Open under "audit.check.inv.<name>".
var (
	mChecks       = telemetry.NewCounter("audit.checks", "calls")
	mCheckLatency = telemetry.NewHistogram("audit.check.latency", "ns")
	mTrimsSkipped = telemetry.NewCounter("audit.trims.skipped", "calls")
)

// Check header names (§5.2, "Result notification").
const (
	// CheckHeader on a request triggers an invariant check.
	CheckHeader = "Libseal-Check"
	// CheckResultHeader carries the most recent check result in-band.
	CheckResultHeader = "Libseal-Check-Result"
)

// ErrLoggingDisabled is returned by check operations when the instance runs
// without a service-specific module (TLS termination only).
var ErrLoggingDisabled = errors.New("core: logging disabled (no service module)")

// Config assembles a LibSEAL instance.
type Config struct {
	// TLS configures the enclave TLS library (certificate, key, client
	// authentication, §4.2 optimisations).
	TLS tlsterm.LibraryConfig
	// Module is the service-specific module. Nil disables auditing: the
	// instance only terminates TLS (the paper's "LibSEAL-process" mode).
	Module ssm.Module
	// AuditMode selects in-memory or persistent logging.
	AuditMode audit.Mode
	// AuditDir is the persistence directory for disk mode.
	AuditDir string
	// AuditShards partitions the audit log across this many independent
	// group-commit pipelines (files, fsync streams, rollback counters),
	// routed by connection so per-connection order is preserved, with a
	// signed cross-shard epoch manifest binding the shards together. Values
	// <= 1 mean one shard, in the same layout: its shard file and the
	// manifest sidecar. See audit.ShardedConfig.
	AuditShards int
	// AuditManifestEvery is the minimum interval between epoch manifests in
	// disk mode; zero selects the audit package default.
	AuditManifestEvery time.Duration
	// Protector provides rollback protection for the persisted log.
	Protector audit.RollbackProtector
	// SealLog encrypts persisted entries for log privacy.
	SealLog bool
	// AuditFS overrides the filesystem used for audit-log persistence; nil
	// uses the real one. The seam exists for fault injection.
	AuditFS vfs.FS
	// AnchorTimeout bounds each rollback-counter operation on the request
	// path when the protector supports cancellation.
	AnchorTimeout time.Duration
	// DegradedLimit, when positive, lets up to this many appends proceed
	// under a stale counter anchor while the counter quorum is unreachable,
	// instead of failing SSL writes. See audit.Config.DegradedLimit.
	DegradedLimit int
	// RecoverMaxLag tolerates the persisted counter lagging the group by up
	// to this much during RecoverExisting. See audit.Config.RecoverMaxLag.
	RecoverMaxLag uint64
	// RecoverExisting resumes from a persisted log (verifying its chain,
	// signature and counter freshness) instead of truncating it. The
	// enclave must be launched from the same platform and code so its keys
	// match.
	RecoverExisting bool
	// AuditBatchMax enables group commit in the audit log: up to this many
	// entries share one signature record, fsync and counter increment.
	// Values <= 1 keep the conservative entry-at-a-time behaviour. See
	// audit.Config.BatchMax.
	AuditBatchMax int
	// AuditBatchDelay bounds how long a batch leader behind a commit in
	// flight waits for concurrent appends to fill a non-full batch. See
	// audit.Config.BatchDelay.
	AuditBatchDelay time.Duration
	// AuditMaxStaged bounds the staged-but-not-durable entries in the
	// group-commit pipeline (admission control); over-budget appends are
	// shed with audit.ErrOverloaded. Zero disables the bound. See
	// audit.Config.MaxStaged.
	AuditMaxStaged int
	// AuditAdmitTimeout is how long an over-budget append may wait for the
	// pipeline to drain before being shed. See audit.Config.AdmitTimeout.
	AuditAdmitTimeout time.Duration
	// CheckEvery runs invariant checks and trimming after this many logged
	// request/response pairs. Zero disables pair-count checks.
	CheckEvery int
	// CheckInterval runs invariant checks and trimming on a wall-clock
	// period — the paper's default checking mode (§5.2). Zero disables
	// time-based checks.
	CheckInterval time.Duration
	// CheckMinInterval rate-limits client-triggered checks to defeat
	// denial-of-service via the check header (§6.3). Zero means no limit.
	CheckMinInterval time.Duration
	// OnViolation, when set, is called for each invariant with a non-empty
	// violation set after any check.
	OnViolation func(invariant string, violations *sqldb.Result)
}

// Violation records one detected integrity violation.
type Violation struct {
	Invariant string
	Detected  time.Time
	Rows      *sqldb.Result
	// ChainSeq is the chain position the check attests: the number of
	// entries staged into the audit log (durable plus in-flight) when the
	// check's snapshot was captured. The violation was present within the
	// first ChainSeq logged entries.
	ChainSeq uint64
}

// LibSEAL is one audit-library instance.
type LibSEAL struct {
	cfg    Config
	bridge *asyncall.Bridge
	tls    *tlsterm.Library
	log    *audit.ShardedLog

	// connMu guards only the tracker map; each tracker carries its own
	// lock, so connections make progress independently.
	connMu sync.Mutex
	conns  map[uint64]*connTracker

	// logMu is the narrow log-order lock: it serialises SSM tuple
	// extraction and the staging of pairs into the audit log (the point
	// that fixes hash-chain order) along with check/trim state. It is
	// never held across a durability wait, nor across invariant or trim
	// query evaluation: checks capture a snapshot under logMu and evaluate
	// it with the lock released.
	logMu      sync.Mutex
	pairTime   int64
	sinceCheck int
	lastCheck  time.Time
	violations []Violation
	stats      Stats

	// cycleMu is held by a check+trim cycle from its capture to the end of
	// its trim, so the rows one cycle's trim plan kept are never deleted
	// from under it by another's (see runCycle).
	cycleMu sync.Mutex

	// Invariant and trim statements, parsed once at New.
	prepared  []preparedInvariant
	trimStmts []*sqldb.Stmt

	stopPeriodic chan struct{}
	periodicDone chan struct{}
}

// preparedInvariant is one invariant with its statement parsed at New and
// its per-invariant latency histogram.
type preparedInvariant struct {
	name string
	stmt *sqldb.Stmt
	hist *telemetry.Histogram
}

// Stats counts audit activity.
type Stats struct {
	Pairs  int64
	Tuples int64
	Checks int64
	// Trims counts cycles whose trim queries deleted rows from the database.
	Trims      int64
	Violations int64
	// TrimFailures counts trims that could not complete: a plan that failed
	// or went stale, or a compaction that did not land (e.g. the counter
	// quorum was unreachable) — the files keep growing until one succeeds.
	TrimFailures int64
	// Reanchors counts degraded-mode gaps closed by a fresh counter anchor.
	Reanchors int64
	// TrimsSkipped counts cycles whose trim queries deleted nothing from the
	// check's snapshot, so the database was left alone.
	TrimsSkipped int64
	// Compactions counts rewrites of the log files to the rows the database
	// holds: when half the files' bytes were dead, and on every TrimNow. Memory
	// mode has no files and counts none.
	Compactions int64
}

// connTracker pairs the request and response streams of one connection. Its
// mutex guards the buffers and pairing state; taking it never requires any
// other lock.
type connTracker struct {
	mu      sync.Mutex
	reqBuf  []byte
	rspBuf  []byte
	pending [][]byte // complete, unpaired request bytes (pipelining)
	// injectResult is set when the next response head should carry the
	// check-result header.
	injectResult string
}

// New builds a LibSEAL instance on the given enclave bridge. The audit log
// and TLS state are initialised inside the enclave.
func New(bridge *asyncall.Bridge, cfg Config) (*LibSEAL, error) {
	ls := &LibSEAL{
		cfg:    cfg,
		bridge: bridge,
		conns:  make(map[uint64]*connTracker),
	}
	if cfg.Module != nil {
		auditCfg := audit.ShardedConfig{
			Config: audit.Config{
				Name:          cfg.Module.Name(),
				Schema:        cfg.Module.Schema(),
				Mode:          cfg.AuditMode,
				Dir:           cfg.AuditDir,
				Protector:     cfg.Protector,
				Seal:          cfg.SealLog,
				FS:            cfg.AuditFS,
				AnchorTimeout: cfg.AnchorTimeout,
				DegradedLimit: cfg.DegradedLimit,
				RecoverMaxLag: cfg.RecoverMaxLag,
				BatchMax:      cfg.AuditBatchMax,
				BatchDelay:    cfg.AuditBatchDelay,
				MaxStaged:     cfg.AuditMaxStaged,
				AdmitTimeout:  cfg.AuditAdmitTimeout,
			},
			Shards:        cfg.AuditShards,
			ManifestEvery: cfg.AuditManifestEvery,
		}
		err := bridge.Call(func(env *asyncall.Env) error {
			var err error
			if cfg.RecoverExisting && cfg.AuditMode == audit.ModeDisk {
				ls.log, err = audit.RecoverSharded(env, auditCfg, bridge.Enclave().PublicKey())
				return err
			}
			ls.log, err = audit.NewSharded(env, auditCfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		// Resume the logical clock past the recovered entries so new
		// tuples sort after them.
		if ls.log != nil {
			ls.pairTime = int64(ls.log.Seq())
			if err := ls.prepareStatements(); err != nil {
				_ = ls.log.Close() // the module's SQL is what failed New
				return nil, err
			}
		}
		cfg.TLS.Tap = (*sealTap)(ls)
	}
	tlsLib, err := tlsterm.NewLibrary(bridge, cfg.TLS)
	if err != nil {
		return nil, err
	}
	ls.tls = tlsLib
	if cfg.CheckInterval > 0 && ls.log != nil {
		ls.stopPeriodic = make(chan struct{})
		ls.periodicDone = make(chan struct{})
		go ls.periodicChecks(cfg.CheckInterval)
	}
	return ls, nil
}

// prepareStatements parses the module's invariant and trim SQL once so a
// cycle never parses. The SQL engine's grammar is a contract (DESIGN.md §15):
// a module whose SQL is outside it — or whose invariant is not a SELECT, or
// whose trim is not a script of DELETEs — fails New, with the module, the
// statement and the parser's complaint in the error, rather than every check
// or trim it would have run.
func (ls *LibSEAL) prepareStatements() error {
	db, mod := ls.log.DB(), ls.cfg.Module
	for _, inv := range mod.Invariants() {
		stmts, err := prepareScript[*sqldb.SelectStmt](db, inv.SQL, "SELECT")
		if err == nil && len(stmts) != 1 {
			err = fmt.Errorf("%d statements where one SELECT is required", len(stmts))
		}
		if err != nil {
			return fmt.Errorf("core: module %s: invariant %s: %w", mod.Name(), inv.Name, err)
		}
		ls.prepared = append(ls.prepared, preparedInvariant{
			name: inv.Name,
			stmt: stmts[0],
			hist: telemetry.NewHistogram("audit.check.inv."+inv.Name, "ns"),
		})
	}
	for _, q := range mod.TrimQueries() {
		stmts, err := prepareScript[*sqldb.DeleteStmt](db, q, "DELETE")
		if err != nil {
			return fmt.Errorf("core: module %s: trimming query %q: %w", mod.Name(), q, err)
		}
		ls.trimStmts = append(ls.trimStmts, stmts...)
	}
	return nil
}

// prepareScript parses a module's script for repeated execution and requires
// every statement of it to be a K.
func prepareScript[K sqldb.Statement](db *sqldb.DB, script, kind string) ([]*sqldb.Stmt, error) {
	parsed, err := sqldb.ParseAll(script)
	if err != nil {
		return nil, err
	}
	for _, st := range parsed {
		if _, ok := st.(K); !ok {
			return nil, fmt.Errorf("a %T where a %s is required", st, kind)
		}
	}
	return db.PrepareScript(script)
}

// periodicChecks runs the §5.2 default checking mode: invariants and
// trimming on a fixed wall-clock period.
func (ls *LibSEAL) periodicChecks(interval time.Duration) {
	defer close(ls.periodicDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ls.stopPeriodic:
			return
		case <-ticker.C:
			_ = ls.bridge.Call(func(env *asyncall.Env) error {
				// A failed trim is counted and retried by the next cycle.
				_ = ls.runCycle(env, false)
				// If appends ran degraded (counter quorum unreachable), the
				// periodic tick doubles as the re-anchor retry loop.
				if ls.log.Status().Degraded {
					asyncall.Lock(env, &ls.logMu)
					if err := ls.log.Reanchor(env); err == nil {
						ls.stats.Reanchors++
					}
					ls.logMu.Unlock()
				}
				// Idle periods still get manifests: without writes the
				// request-path cadence never fires.
				_ = ls.log.ManifestIfDue(env)
				return nil
			})
		}
	}
}

// TLS returns the drop-in TLS library services link against.
func (ls *LibSEAL) TLS() *tlsterm.Library { return ls.tls }

// Log returns the audit log set — one shard unless AuditShards asks for
// more; nil when auditing is disabled.
func (ls *LibSEAL) Log() *audit.ShardedLog { return ls.log }

// Bridge returns the underlying enclave bridge.
func (ls *LibSEAL) Bridge() *asyncall.Bridge { return ls.bridge }

// StatsSnapshot returns a copy of the audit counters.
func (ls *LibSEAL) StatsSnapshot() Stats {
	ls.logMu.Lock()
	s := ls.stats
	ls.logMu.Unlock()
	return s
}

// AuditStatus returns the audit log's degraded-mode state (zero when
// auditing is disabled).
func (ls *LibSEAL) AuditStatus() audit.Status {
	if ls.log == nil {
		return audit.Status{}
	}
	return ls.log.Status()
}

// Violations returns all violations detected so far.
func (ls *LibSEAL) Violations() []Violation {
	ls.logMu.Lock()
	defer ls.logMu.Unlock()
	return append([]Violation(nil), ls.violations...)
}

// sealTap adapts LibSEAL to the tlsterm.Tap interface. Methods run inside
// the enclave within SSL_read/SSL_write ecalls.
type sealTap LibSEAL

// OnData implements tlsterm.Tap.
func (t *sealTap) OnData(env *asyncall.Env, connID uint64, dir tlsterm.Direction, data []byte) ([]byte, error) {
	ls := (*LibSEAL)(t)
	if dir == tlsterm.DirRead {
		return nil, ls.onRead(env, connID, data)
	}
	return ls.onWrite(env, connID, data)
}

// OnClose implements tlsterm.Tap.
func (t *sealTap) OnClose(env *asyncall.Env, connID uint64) {
	ls := (*LibSEAL)(t)
	ls.connMu.Lock()
	delete(ls.conns, connID)
	ls.connMu.Unlock()
}

// tracker returns (creating if needed) the connection's state. connMu is
// held only for the map access; callers lock the tracker itself.
func (ls *LibSEAL) tracker(connID uint64) *connTracker {
	ls.connMu.Lock()
	defer ls.connMu.Unlock()
	tr, ok := ls.conns[connID]
	if !ok {
		tr = &connTracker{}
		ls.conns[connID] = tr
	}
	return tr
}

// onRead cuts complete requests out of the request plaintext. Only this
// connection's tracker is locked; other connections frame in parallel. A
// request is framed, not built: the tap needs its length and whether it asks
// for a check, and the module parses it when its response comes. data
// belongs to the record layer and is framed where it lies when nothing is
// buffered; what must outlive the call — a request awaiting its response, an
// incomplete tail — is copied.
func (ls *LibSEAL) onRead(env *asyncall.Env, connID uint64, data []byte) error {
	tr := ls.tracker(connID)
	asyncall.Lock(env, &tr.mu)
	defer tr.mu.Unlock()
	buf := data
	if len(tr.reqBuf) > 0 {
		tr.reqBuf = append(tr.reqBuf, data...)
		buf = tr.reqBuf
	}
	for len(buf) > 0 {
		n, check, err := httpparse.FrameRequest(buf, CheckHeader)
		if errors.Is(err, httpparse.ErrIncomplete) {
			break
		}
		if err != nil {
			// Not HTTP (or corrupted): keep the raw bytes as one pending
			// "request" so non-HTTP SSMs could still see it; reset.
			n = len(buf)
		}
		tr.pending = append(tr.pending, bytes.Clone(buf[:n]))
		buf = buf[n:]
		if check {
			// Run the check now so this response can carry the result. The
			// evaluation happens on a snapshot with logMu released, so other
			// connections keep appending while this one checks.
			_, tr.injectResult = ls.runCheck(env, context.Background(), true)
		}
	}
	// buf is data's tail or reqBuf's own: either way it moves to the front.
	tr.reqBuf = append(tr.reqBuf[:0], buf...)
	return nil
}

// onWrite pairs completed responses with their requests, stages the pairs
// into the audit log, and injects the check-result header. Like onRead it
// frames data in place when nothing is buffered — a response the service
// writes in one piece is never copied, only read — and keeps a copy of an
// incomplete tail. Pairing runs under the tracker lock, staging under
// one logMu critical section, and the durability waits after both locks are
// released, so appends from concurrent connections can share one
// group-commit batch; the write still only succeeds once every staged entry
// is durable.
//
// The single staging section is load-bearing for deadlock freedom: a
// compaction quiesces the group-commit lane while holding logMu, and the lane
// drains only when every batch leader reaches Ticket.Wait. A connection that
// leads an open batch must therefore never block on logMu again before all of
// its tickets are waited — which is why the pairs are cut out first, staged in
// one logMu hold, and the statistics for failed pairs are undone only after
// the last wait resolves.
func (ls *LibSEAL) onWrite(env *asyncall.Env, connID uint64, data []byte) ([]byte, error) {
	tr := ls.tracker(connID)
	asyncall.Lock(env, &tr.mu)

	var out []byte // nil unless the header went in
	if tr.injectResult != "" {
		if rewritten, ok := injectHeader(data, CheckResultHeader, tr.injectResult); ok {
			out = rewritten
			tr.injectResult = ""
		}
	}

	// Pair using the (unmodified) response bytes: the audit log records
	// what the service produced.
	buf := data
	if len(tr.rspBuf) > 0 {
		tr.rspBuf = append(tr.rspBuf, data...)
		buf = tr.rspBuf
	}
	var spare [4]rawPair // the pairs of one write; more than four is rare
	pairs := spare[:0]
	for len(buf) > 0 {
		n, err := httpparse.FrameResponse(buf)
		if errors.Is(err, httpparse.ErrIncomplete) {
			break
		}
		if err != nil {
			// Not HTTP: flush as an opaque response.
			n = len(buf)
		}
		if len(pairs) == len(tr.pending) {
			// Response without a recorded request (e.g. server push);
			// drop it — nothing to pair.
			buf = buf[n:]
			break
		}
		pairs = append(pairs, rawPair{req: tr.pending[len(pairs)], rsp: buf[:n]})
		buf = buf[n:]
	}
	// Shifted down rather than resliced, so that the array is reused.
	tr.pending = slices.Delete(tr.pending, 0, len(pairs))
	if len(pairs) > 0 && len(tr.rspBuf) > 0 {
		// The pairs alias rspBuf's array and are staged after the tracker is
		// unlocked: the array is theirs now, the tail starts a new one.
		tr.rspBuf = nil
	}
	tr.rspBuf = append(tr.rspBuf[:0], buf...)
	tr.mu.Unlock()

	tickets, checkDue, stageErr := ls.stagePairs(env, connID, pairs)

	// Every staged ticket must be waited on — a batch leader commits its
	// batch from inside Wait — even when a later pair failed to stage.
	err := stageErr
	var undoPairs, undoTuples int64
	for _, sp := range tickets {
		if werr := sp.ticket.Wait(env); werr != nil {
			// The pair never became durable: take it back out of the audit
			// statistics (below, once no wait is outstanding) so they count
			// acknowledged work only.
			undoPairs++
			undoTuples += sp.tuples
			if err == nil {
				err = fmt.Errorf("core: audit append: %w", werr)
			}
		}
	}
	if undoPairs > 0 {
		asyncall.Lock(env, &ls.logMu)
		ls.stats.Pairs -= undoPairs
		ls.stats.Tuples -= undoTuples
		ls.logMu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	if checkDue {
		// Every ticket is waited and no lock is held: the one state in which
		// a request path may wait for cycleMu. A failed trim is counted and
		// retried by the next cycle, never the client's problem.
		_ = ls.runCycle(env, false)
	}
	if len(tickets) > 0 {
		// Epoch-manifest cadence rides the write path: after the waits no
		// lock is held, so binding the shards' durable states is off the
		// critical section. Best-effort — a failed manifest only widens the
		// cross-shard rollback window until the next one.
		_ = ls.log.ManifestIfDue(env)
	}
	return out, nil
}

// rawPair is one request/response pair cut out of a connection's streams.
// rsp may alias the buffer the tap was handed: it is good until onWrite
// returns, which is as long as staging needs it.
type rawPair struct {
	req, rsp []byte
}

// stagedPair is one pair's durability ticket plus the statistics to undo
// if the pair never becomes durable.
type stagedPair struct {
	ticket *audit.Ticket
	tuples int64
}

// stagePairs hands the pairs to the SSM and stages their tuples into the
// audit log's commit pipeline, one ticket per pair, under a single logMu
// critical section that serialises the commit order across connections.
// Staging every pair in one hold keeps pipelined pairs eligible for one
// group-commit batch and guarantees the caller is never a pending batch
// leader while blocked on logMu (see onWrite). The second result reports
// that the CheckEvery budget is exhausted — the caller runs the check once
// its entries are durable.
func (ls *LibSEAL) stagePairs(env *asyncall.Env, connID uint64, pairs []rawPair) ([]stagedPair, bool, error) {
	if len(pairs) == 0 {
		return nil, false, nil
	}
	asyncall.Lock(env, &ls.logMu)
	defer ls.logMu.Unlock()
	var tickets []stagedPair
	checkDue := false
	for _, p := range pairs {
		ls.pairTime++
		st := &ssm.State{Time: ls.pairTime, DB: ls.log.DB()}
		tuples, err := ls.cfg.Module.HandlePair(st, p.req, p.rsp)
		if err != nil {
			// Unparseable traffic is not a service integrity violation; it
			// is recorded as a statistic but does not fail the connection.
			continue
		}
		if len(tuples) > 0 {
			rows := make([]audit.Row, len(tuples))
			for i, tu := range tuples {
				rows[i] = audit.Row{Table: tu.Table, Values: tu.Values}
			}
			// All of one connection's pairs route to one shard (stable hash
			// of the connection ID), so per-connection order is preserved
			// while different connections fan out across shard pipelines.
			ticket, err := ls.log.Stage(env, connID, rows)
			if err != nil {
				return tickets, checkDue, fmt.Errorf("core: audit append: %w", err)
			}
			tickets = append(tickets, stagedPair{ticket: ticket, tuples: int64(len(tuples))})
			ls.stats.Tuples += int64(len(tuples))
		}
		ls.stats.Pairs++
		if len(tuples) > 0 && ls.cfg.CheckEvery > 0 {
			ls.sinceCheck++
			if ls.sinceCheck >= ls.cfg.CheckEvery {
				ls.sinceCheck = 0
				checkDue = true
			}
		}
	}
	return tickets, checkDue, nil
}

// checkCapture is everything a check needs from under logMu: a consistent
// copy-on-write snapshot of the audit database and the chain position it
// corresponds to. Capturing is O(tables); evaluation happens lock-free.
type checkCapture struct {
	snap     *sqldb.Snapshot
	chainSeq uint64
	start    time.Time
}

// checkOutcome is the result of evaluating one capture.
type checkOutcome struct {
	cap        *checkCapture
	result     string
	violations []Violation
	// ctxErr is set when a CheckNowContext caller's context cancelled the
	// evaluation partway through.
	ctxErr error
}

// captureCheckLocked starts a check under logMu. It returns nil and a
// final result string when no evaluation should happen (auditing disabled
// or a rate-limited client trigger).
func (ls *LibSEAL) captureCheckLocked(clientTriggered bool) (*checkCapture, string) {
	if ls.log == nil {
		return nil, "disabled"
	}
	now := time.Now()
	if clientTriggered && ls.cfg.CheckMinInterval > 0 && now.Sub(ls.lastCheck) < ls.cfg.CheckMinInterval {
		return nil, "rate-limited"
	}
	ls.lastCheck = now
	ls.stats.Checks++
	mChecks.Inc()
	return &checkCapture{
		snap: ls.log.DB().Snapshot(),
		// Durable entries plus staged-but-in-flight ones: exactly the rows
		// the snapshot contains. A later batch abort can retract in-flight
		// entries, so ChainSeq attests the speculative chain.
		chainSeq: ls.log.Seq() + uint64(ls.log.PendingStaged()),
		start:    now,
	}, ""
}

// evalCheck runs every prepared invariant against the capture's snapshot.
// No locks are held; appends proceed concurrently. ctx is consulted between
// invariants: cancellation stops the evaluation early with result
// "cancelled" and ctxErr set — violations found up to that point are still
// published (they are real).
func (ls *LibSEAL) evalCheck(ctx context.Context, cap *checkCapture) *checkOutcome {
	out := &checkOutcome{cap: cap}
	defer telemetry.ObserveSince(mCheckLatency, "audit.check", cap.start)
	var violated []string
	for _, p := range ls.prepared {
		if err := ctx.Err(); err != nil {
			out.result = "cancelled"
			out.ctxErr = err
			return out
		}
		t0 := time.Now()
		res, err := cap.snap.QueryStmt(p.stmt)
		if err != nil {
			out.result = "error:" + p.name
			return out
		}
		telemetry.ObserveSince(p.hist, "audit.check.inv."+p.name, t0)
		if !res.Empty() {
			violated = append(violated, p.name)
			out.violations = append(out.violations, Violation{
				Invariant: p.name, Detected: cap.start, Rows: res, ChainSeq: cap.chainSeq,
			})
		}
	}
	if len(violated) == 0 {
		out.result = "ok"
	} else {
		out.result = "violation:" + strings.Join(violated, ",")
	}
	return out
}

// publishCheckLocked records an outcome under logMu.
func (ls *LibSEAL) publishCheckLocked(out *checkOutcome) {
	for _, v := range out.violations {
		ls.violations = append(ls.violations, v)
		ls.stats.Violations += int64(len(v.Rows.Rows))
	}
}

// notifyViolations delivers OnViolation callbacks outside every lock.
func (ls *LibSEAL) notifyViolations(out *checkOutcome) {
	if ls.cfg.OnViolation == nil {
		return
	}
	for _, v := range out.violations {
		ls.cfg.OnViolation(v.Invariant, v.Rows)
	}
}

// runCheck is the capture → evaluate → publish sequence of every check.
// logMu is held only for the two O(tables) bookkeeping sections; the
// invariant evaluation in between runs with the lock released, so appends
// are stalled for the snapshot capture, not the check. Returns nil when
// evaluation was skipped (disabled or rate-limited).
func (ls *LibSEAL) runCheck(env *asyncall.Env, ctx context.Context, clientTriggered bool) (*checkOutcome, string) {
	asyncall.Lock(env, &ls.logMu)
	cap, early := ls.captureCheckLocked(clientTriggered)
	ls.logMu.Unlock()
	if cap == nil {
		return nil, early
	}
	out := ls.evalCheck(ctx, cap)
	asyncall.Lock(env, &ls.logMu)
	ls.publishCheckLocked(out)
	ls.logMu.Unlock()
	ls.notifyViolations(out)
	return out, out.result
}

// runCycle is the one check+trim cycle (§5.2), whoever asks for it — the
// CheckEvery budget on a request path, the periodic tick or TrimNow. It is
// one unit over one immutable state: the snapshot is captured under logMu,
// the invariants run on it, the module's trim queries run on it — the same
// private tables, in script order, no lock held — and only then, under logMu,
// the live tables become what the queries kept of the captured rows plus
// every row appended since. A trim therefore deletes only rows its own check
// saw; rows staged during the cycle stay, unchecked, for the next one.
//
// The trim touches the database only. The log files are compacted to the
// rows it holds — every shard quiesced and rewritten — when the trim leaves
// half their bytes dead (audit.ShardedLog.CompactDue), and always when compact
// is set: TrimNow's caller wants the disk back. Memory mode has no files to
// compact.
//
// Cycles never overlap between capture and apply: the rows a plan kept must
// still be there when it is applied. cycleMu is the outermost lock — the
// caller holds no other lock and has waited every ticket it staged, so it can
// park here without stalling a batch — and checks that do not trim (the check
// header, CheckNow) never take it.
//
// The returned error is the trim's or the compaction's; it is counted in
// Stats.TrimFailures and the next cycle retries, the files growing meanwhile.
// Only the append path may fail an SSL write, since there durability is at
// stake.
func (ls *LibSEAL) runCycle(env *asyncall.Env, compact bool) error {
	asyncall.Lock(env, &ls.cycleMu)
	defer ls.cycleMu.Unlock()
	out, _ := ls.runCheck(env, context.Background(), false)
	if out == nil {
		return nil
	}
	plan, err := audit.PlanTrim(out.cap.snap, ls.trimStmts)
	if err != nil {
		err = fmt.Errorf("core: trimming query: %w", err)
	}
	asyncall.Lock(env, &ls.logMu)
	defer ls.logMu.Unlock()
	switch {
	case err != nil:
	case plan.Deleted() == 0:
		// Nothing to trim, so nothing died in the files either.
		ls.stats.TrimsSkipped++
		mTrimsSkipped.Inc()
	default:
		if err = ls.log.ApplyTrim(env, plan); err == nil {
			ls.stats.Trims++
			compact = compact || ls.log.CompactDue()
		}
	}
	if err == nil && compact && ls.cfg.AuditMode == audit.ModeDisk {
		if err = ls.log.Compact(env); err == nil {
			ls.stats.Compactions++
		}
	}
	if err != nil {
		ls.stats.TrimFailures++
	}
	return err
}

// CheckNow runs the invariants immediately (Fig. 1, step 6) and returns the
// result string. The evaluation runs on a snapshot outside logMu, and nothing
// is trimmed. It is CheckNowContext with a background context.
func (ls *LibSEAL) CheckNow() (string, error) {
	return ls.CheckNowContext(context.Background())
}

// CheckNowContext is CheckNow with cancellation: ctx is consulted before the
// check is dispatched and between invariant evaluations. A cancelled check
// returns ctx's error with result "cancelled"; violations found before the
// cancellation are still recorded and notified — detection is never undone.
func (ls *LibSEAL) CheckNowContext(ctx context.Context) (string, error) {
	if ls.log == nil {
		return "", ErrLoggingDisabled
	}
	if err := ctx.Err(); err != nil {
		return "", err
	}
	var (
		result string
		out    *checkOutcome
	)
	err := ls.bridge.Call(func(env *asyncall.Env) error {
		out, result = ls.runCheck(env, ctx, false)
		return nil
	})
	if err == nil && out != nil && out.ctxErr != nil {
		err = out.ctxErr
	}
	return result, err
}

// TrimNow runs one check+trim cycle immediately, compacting the log files
// whatever their dead share, and returns the trim's error. A trim always
// follows its own check: the trimming queries delete rows on the strength of
// their having been checked.
func (ls *LibSEAL) TrimNow() error {
	if ls.log == nil {
		return ErrLoggingDisabled
	}
	return ls.bridge.Call(func(env *asyncall.Env) error { return ls.runCycle(env, true) })
}

// Close stops periodic checking, then releases the audit log's resources (in
// that order: a periodic cycle may still be evaluating against the log's
// database).
func (ls *LibSEAL) Close() error {
	if ls.stopPeriodic != nil {
		close(ls.stopPeriodic)
		<-ls.periodicDone
		ls.stopPeriodic = nil
	}
	if ls.log != nil {
		return ls.log.Close()
	}
	return nil
}

// injectHeader inserts a header line after the status line of a serialised
// HTTP response head. It reports false if data does not start with a parse-
// able status line (the header is then carried on a later response instead).
func injectHeader(data []byte, key, value string) ([]byte, bool) {
	idx := bytes.Index(data, []byte("\r\n"))
	if idx < 0 || !bytes.HasPrefix(data, []byte("HTTP/")) {
		return nil, false
	}
	var out bytes.Buffer
	out.Grow(len(data) + len(key) + len(value) + 4)
	out.Write(data[:idx+2])
	out.WriteString(key)
	out.WriteString(": ")
	out.WriteString(value)
	out.WriteString("\r\n")
	out.Write(data[idx+2:])
	return out.Bytes(), true
}
