// Package audit implements LibSEAL's tamper-evident relational audit log
// (§5.1). Tuples extracted by service-specific modules are inserted into an
// embedded in-enclave database and, in disk mode, serialised to untrusted
// persistent storage protected by a hash chain, enclave-produced ECDSA
// signatures and a distributed monotonic counter that defeats rollback
// attacks. Trimming queries prune the database of entries no longer needed by
// the invariants; once half the files' bytes are dead they are compacted, the
// chain recomputed over the surviving tuples.
//
// # Group commit
//
// Writing a signature record and flushing after every entry is the
// durability-conservative default; §5.1 observes that signatures and flushes
// amortise over batches without weakening the rollback guarantee, because
// the counter anchors the batch, not the entry. With Config.BatchMax > 1 the
// log therefore group-commits: concurrent appends stage entries into the
// open batch, and the batch commits as entries… + one signature record + one
// fsync + one counter increment. The first stager of a batch is its leader
// and performs the commit with its own enclave context; followers park until
// the batch is durable. A leader that finds the commit lane idle commits at
// once — a batch forms from the followers that arrive while a commit is in
// flight, never by waiting for them on an idle lane; only behind a busy lane
// does the leader give followers up to Config.BatchDelay to fill the batch.
// Batches commit strictly in staging (turn) order so
// the on-disk record stream always matches the hash chain. Append returns
// only once its batch is durable, and the published chain head advances only
// post-durability, exactly as in the entry-at-a-time mode.
package audit

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/sqldb"
	"libseal/internal/telemetry"
	"libseal/internal/vfs"
)

// Audit-log telemetry: append/trim latency dominates the request-path
// overhead (§7.2), chain length tracks log growth between trims, the
// degraded-mode series records how often the counter quorum dropped out,
// and the batch series shows how far group commit amortises the per-entry
// signature, fsync and counter costs.
var (
	mAppends       = telemetry.NewCounter("audit.appends", "calls")
	mAppendErrors  = telemetry.NewCounter("audit.append.errors", "calls")
	mTrims         = telemetry.NewCounter("audit.trims", "calls")
	mAppendLatency = telemetry.NewHistogram("audit.append.latency", "ns")
	// A trim is its database half, every cycle (audit.trim), and a compaction
	// of the files when half their bytes are dead (audit.compact).
	mTrimLatency    = telemetry.NewHistogram("audit.trim.latency", "ns")
	mCompactions    = telemetry.NewCounter("audit.compactions", "calls")
	mCompactLatency = telemetry.NewHistogram("audit.compact.latency", "ns")
	// Why the log is the size it is, as of the last trim or compaction: the
	// shard files' committed bytes, and what a compaction would leave of them.
	mCommittedBytes = telemetry.NewGauge("audit.log_bytes.committed", "bytes")
	mLiveBytes      = telemetry.NewGauge("audit.log_bytes.live", "bytes")
	// The plan a trim applies, then a compaction's stages: the quiesce before
	// it and the anchors the image build did not hide.
	mTrimPlan         = telemetry.NewHistogram("audit.trim.plan", "ns")
	mTrimQuiesce      = telemetry.NewHistogram("audit.trim.quiesce", "ns")
	mTrimAnchorWait   = telemetry.NewHistogram("audit.trim.anchor_wait", "ns")
	mChainLength      = telemetry.NewGauge("audit.chain_length", "entries")
	mDegradedEpisodes = telemetry.NewCounter("audit.degraded.episodes", "episodes")
	mDegradedPending  = telemetry.NewGauge("audit.degraded.pending", "appends")
	mGaps             = telemetry.NewCounter("audit.degraded.gaps", "gaps")
	mFsyncs           = telemetry.NewCounter("audit.fsyncs", "calls")
	mSignatures       = telemetry.NewCounter("audit.signatures", "calls")
	// A commit signs while its counter increment is in flight: the part of
	// the round trip the signature did not hide, and the commits whose
	// increment returned another value than predicted and signed again.
	mCommitAnchorWait = telemetry.NewHistogram("audit.commit.anchor_wait", "ns")
	mCommitResigns    = telemetry.NewCounter("audit.commit.resigns", "batches")
	mBatchCommits     = telemetry.NewCounter("audit.batch.commits", "batches")
	mBatchAborts      = telemetry.NewCounter("audit.batch.aborts", "batches")
	mBatchSize        = telemetry.NewHistogram("audit.batch.size", "entries")
	mFlushFull        = telemetry.NewCounter("audit.batch.flush.full", "batches")
	mFlushDelay       = telemetry.NewCounter("audit.batch.flush.delay", "batches")
	mFlushIdle        = telemetry.NewCounter("audit.batch.flush.idle", "batches")
	mAdmitShed        = telemetry.NewCounter("audit.admission.shed", "calls")
	mAdmitWaits       = telemetry.NewCounter("audit.admission.waits", "calls")
	mStagedPending    = telemetry.NewGauge("audit.staged.pending", "entries")
)

// Errors reported by the audit log.
var (
	ErrTampered   = errors.New("audit: log integrity violation")
	ErrBadCounter = errors.New("audit: rollback detected (stale counter)")
	// ErrDegradedFull is returned by Append when the counter quorum is
	// unreachable and the degraded-mode buffer is exhausted.
	ErrDegradedFull = errors.New("audit: degraded-mode buffer full (counter quorum unreachable)")
	// ErrClosed is returned by Append/Stage after Close.
	ErrClosed = errors.New("audit: log closed")
	// ErrBatchAborted is returned by appends whose batch never committed
	// because an earlier batch's commit failed: their entries follow entries
	// that never became durable.
	ErrBatchAborted = errors.New("audit: batch aborted (earlier commit failed)")
	// ErrOverloaded is returned by Append/Stage when the group-commit
	// pipeline's staging budget (Config.MaxStaged) is exhausted and did not
	// drain within Config.AdmitTimeout. A stalled fsync or counter quorum
	// then surfaces as backpressure instead of an unbounded ticket queue.
	ErrOverloaded = errors.New("audit: overloaded (staging budget exhausted)")
)

// Mode selects where the log lives.
type Mode int

// Log persistence modes, matching the paper's LibSEAL-mem / LibSEAL-disk
// configurations.
const (
	ModeMemory Mode = iota
	ModeDisk
)

// RollbackProtector is the monotonic counter service used for freshness.
// rote.Group implements it; a nil protector disables rollback protection.
type RollbackProtector interface {
	Increment(name string) (uint64, error)
	Read(name string) (uint64, error)
}

// ContextRollbackProtector is implemented by protectors whose operations
// can be cancelled. When the configured protector implements it, the log
// bounds every counter operation with Config.AnchorTimeout so a stuck
// quorum cannot stall the request path indefinitely. rote.Group implements
// it.
type ContextRollbackProtector interface {
	IncrementContext(ctx context.Context, name string) (uint64, error)
	ReadContext(ctx context.Context, name string) (uint64, error)
}

// Config describes one audit log.
type Config struct {
	// Name identifies the log (counter name, file name).
	Name string
	// Schema is the DDL creating the service-specific relations and views.
	Schema string
	// Mode selects memory-only or persistent operation.
	Mode Mode
	// Dir is the persistence directory (ModeDisk).
	Dir string
	// Protector provides rollback protection for ModeDisk.
	Protector RollbackProtector
	// FS overrides the filesystem used for persistence; nil uses the real
	// one. The seam exists for fault injection and tests.
	FS vfs.FS
	// AnchorTimeout bounds each rollback-counter operation when the
	// protector supports cancellation. Zero leaves the protector's own
	// retry policy in charge. It also paces a degraded episode's probes:
	// one is due AnchorTimeout after the episode's last failed attempt.
	AnchorTimeout time.Duration
	// DegradedLimit, when positive, enables degraded mode: if the counter
	// quorum is unreachable, up to this many appends are persisted,
	// chained and signed — but anchored at the last reachable counter
	// value. While the episode lasts a batch asks the quorum only when a
	// probe is due or the budget cannot take it; the first probe the
	// quorum answers re-anchors the log (one fresh increment covers the
	// whole chain), and the gap is flagged in Status. Zero means an
	// unreachable quorum fails the append. With batching on, admission is
	// decided per batch, so the buffered count may overshoot the limit by
	// at most one batch.
	DegradedLimit int
	// RecoverMaxLag tolerates the persisted counter being up to this far
	// behind the group's stable value during Recover — the state a crash
	// between a counter increment and the matching signature flush leaves
	// behind. Recovery re-anchors immediately. Zero is strict. Client-side
	// verification (VerifyPath) is not affected by this field.
	RecoverMaxLag uint64
	// BatchMax caps how many entries commit under one signature record,
	// fsync and counter increment (group commit). Values <= 1 keep the
	// conservative entry-at-a-time behaviour: every append pays its own
	// signature, flush and counter round-trip.
	BatchMax int
	// BatchDelay bounds how long a batch leader that finds an earlier
	// batch's commit in flight waits for followers to fill its own non-full
	// batch. A leader that finds the lane idle never waits: there, a delay
	// buys no batching, only latency. Zero adds no wait at all; batching then
	// emerges only from entries staged while an earlier batch's commit is in
	// flight. Ignored when BatchMax <= 1.
	BatchDelay time.Duration
	// MaxStaged bounds the entries staged into the commit pipeline but not
	// yet durable (admission control). A Stage that would push the backlog
	// past the bound waits up to AdmitTimeout for commits to drain, then is
	// shed with ErrOverloaded. A group larger than the whole budget is
	// admitted when the pipeline is empty, so oversized groups still make
	// progress. Zero disables the bound. Only meaningful in ModeDisk.
	MaxStaged int
	// AdmitTimeout is how long an over-budget Stage may wait for the
	// pipeline to drain before being shed. Zero sheds immediately.
	AdmitTimeout time.Duration
}

// MeasuredBatchMax and MeasuredBatchDelay are the group-commit setting the
// repository's measurements are taken at and the shipped server runs: one
// place, so the deployment a number describes is the deployment that ships.
const (
	MeasuredBatchMax   = 16
	MeasuredBatchDelay = 200 * time.Microsecond
)

// batchMax normalises the configured batch bound.
func (c Config) batchMax() int {
	if c.BatchMax < 1 {
		return 1
	}
	return c.BatchMax
}

// Log is the enclave-resident audit log. All mutating methods must be called
// from inside an enclave call (they take the asyncall environment) because
// persistence crosses the boundary via ocalls and signatures use the enclave
// key.
//
// Lock rule: a waiter in asyncall.Lock's slow path is handed mu by its host
// thread while its lthread task is still parked, so any code that can run on
// an lthread takes mu through asyncall.Lock — a plain Lock there would block
// the scheduler thread the new owner needs to resume on. Only code that runs
// outside the enclave (ocall bodies, host-side callers) locks mu plainly. The
// fields the env-less accessors report (seq, specSeq, pendingAnchor, gaps) are
// written under mu but stored atomically, so Seq, PendingStaged and Status
// never touch the lock and are safe from either side.
type Log struct {
	cfg Config
	mu  sync.Mutex
	db  *sqldb.DB

	// Durable state: published only once the covering batch is on disk.
	seq     atomic.Uint64
	chain   [32]byte
	counter uint64

	// sigCounter is the counter value attested by the last *durable*
	// signature record. It can trail counter: collectAnchor publishes a fresh
	// value to future signers before the batch's signature hits disk. Epoch
	// manifests snapshot this value so they never attest a counter no
	// on-disk record vouches for. sigHead is the digest of that record's
	// payload, which the next signature record carries as its prev link (zero
	// while the file holds none); the two move together, and only with the
	// commit lane held or quiesced.
	sigCounter uint64
	sigHead    [32]byte

	// specSeq is the sequence number the next staged entry takes; equal to
	// seq while no batch is open.
	specSeq atomic.Uint64

	// Group-commit lane. cur is the open batch accepting joiners; batches
	// commit strictly in turn order (commitTurn is the next turn allowed
	// to commit, nextTurn the turn the next new batch will get). epoch
	// poisons staged batches when an earlier commit fails: their entries
	// carry sequence numbers that follow entries never made durable.
	cur        *commitBatch
	committing bool
	commitTurn uint64
	nextTurn   uint64
	epoch      uint64
	poisonErr  error
	commitCond *sync.Cond
	closed     bool

	// pendingAnchor counts appends persisted under a stale counter value
	// while the quorum is unreachable (degraded mode); gaps counts closed
	// degraded episodes. probeAt is when the episode's next counter probe
	// is due, written under mu by the commit-lane holder.
	pendingAnchor atomic.Int64
	gaps          atomic.Int64
	probeAt       time.Time

	// file is the persisted log (nil in memory mode): an outside resource,
	// touched only inside ocalls and only by the holder of the commit lane
	// or of l.mu with the lane quiesced.
	file  *recordFile
	stmts map[stmtKey]*sqldb.Stmt
}

// stmtKey names a cached INSERT: its table and how many values it takes.
type stmtKey struct {
	table string
	arity int
}

// commitBatch is one group of staged entries committed under a single
// signature record, fsync and counter increment.
type commitBatch struct {
	turn  uint64 // commit order ticket
	epoch uint64 // poison epoch at creation

	payloads [][]byte // encoded entries, in sequence order
	endChain [32]byte // chain head after the batch, computed by its leader at commit
	endSeq   uint64

	full chan struct{} // closed when the batch reaches BatchMax
	done chan struct{} // closed once the commit outcome is known
	err  error         // valid after done

	// Flush-reason telemetry, written under l.mu: filled by the joiner that
	// took the batch to BatchMax, waited by a leader that gave followers
	// BatchDelay behind a busy lane.
	filled, waited bool
	// Set by the leader during commit, read by publish (same goroutine).
	counter uint64   // counter value the batch's signature record attests
	sigHead [32]byte // digest of that record's payload
	// Degraded-mode outcome of collectAnchor, applied by publish only once the
	// batch is durable: a fresh counter value anchors the batch (closing any
	// degraded gap), or the batch was admitted under a stale anchor and its
	// entries join the pending backlog. Entries that never become durable
	// must neither consume the degraded budget nor close a gap.
	anchorFresh bool
	degraded    int
}

// Status describes the log's degraded-mode state.
type Status struct {
	// Degraded is set while appended entries await a fresh counter anchor.
	Degraded bool
	// PendingAnchor is the number of appends not yet covered by a fresh
	// counter value; they are chained and signed but carry a rollback
	// window until re-anchored.
	PendingAnchor int
	// Gaps counts degraded episodes that have been closed by re-anchoring.
	Gaps int
}

// Status returns the degraded-mode state.
func (l *Log) Status() Status {
	pending := int(l.pendingAnchor.Load())
	return Status{Degraded: pending > 0, PendingAnchor: pending, Gaps: int(l.gaps.Load())}
}

// file record types.
const (
	recEntry byte = 'E'
	recSig   byte = 'S'
)

// fileMagic opens a format-3 log (batchChain, sigPayload). formerMagics are
// what earlier formats wrote, oldest first; such a file is refused by name
// rather than as garbage.
var (
	fileMagic    = []byte("LIBSEALLOG3\n")
	formerMagics = [][]byte{[]byte("LIBSEALLOG1\n"), []byte("LIBSEALLOG2\n")}
)

// newShard creates (or truncates) one shard's log over the set's shared
// database, whose schema is already in place.
func newShard(env *asyncall.Env, cfg Config, db *sqldb.DB) (*Log, error) {
	l := newLogDB(cfg, db)
	if cfg.Mode == ModeDisk {
		if err := env.Ocall(l.file.create); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// newLogDB builds a log around an existing database.
// Shards of one ShardedLog share a single database so invariant queries see
// the whole relational view while each shard keeps its own chain, file and
// counter.
func newLogDB(cfg Config, db *sqldb.DB) *Log {
	l := &Log{cfg: cfg, db: db, stmts: make(map[stmtKey]*sqldb.Stmt)}
	if cfg.Mode == ModeDisk {
		path := filepath.Join(cfg.Dir, cfg.Name+".lseal")
		l.file = &recordFile{fs: vfs.Default(cfg.FS), path: path, magic: fileMagic}
	}
	l.commitCond = sync.NewCond(&l.mu)
	return l
}

// Seq returns the number of durable entries appended since creation or
// recovery.
func (l *Log) Seq() uint64 { return l.seq.Load() }

// insertStmt returns a cached prepared INSERT for the table.
func (l *Log) insertStmt(table string, arity int) (*sqldb.Stmt, error) {
	key := stmtKey{table, arity}
	if st, ok := l.stmts[key]; ok {
		return st, nil
	}
	placeholders := strings.TrimSuffix(strings.Repeat("?,", arity), ",")
	st, err := l.db.Prepare(fmt.Sprintf("INSERT INTO %s VALUES (%s)", table, placeholders))
	if err != nil {
		return nil, err
	}
	l.stmts[key] = st
	return st, nil
}

// Row is one tuple destined for a relation of the log, the staging unit of
// the group-commit pipeline.
type Row struct {
	Table  string
	Values []any
}

// Ticket tracks staged-but-not-yet-durable rows. Wait blocks until every
// batch carrying one of the ticket's entries has committed (or failed).
type Ticket struct {
	l     *Log
	start time.Time
	count int
	waits []waitRef
}

// waitRef is one batch the ticket's entries landed in.
type waitRef struct {
	b      *commitBatch
	leader bool
	count  int
}

// Append adds one tuple to the named relation: it is inserted into the
// database and (in disk mode) persisted, chained, under a monotonic counter
// value and enclave signature before returning —
// either on its own (BatchMax <= 1) or as part of a group commit.
func (l *Log) Append(env *asyncall.Env, table string, vals ...any) error {
	t, err := l.Stage(env, []Row{{Table: table, Values: vals}})
	if err != nil {
		return err
	}
	return t.Wait(env)
}

// Stage inserts the rows into the database and stages them into the commit
// pipeline as one unit: the rows take consecutive sequence numbers, so
// checks running under the caller's serialisation never observe a partial
// group. It performs no I/O waits; call Ticket.Wait for durability. Must
// run inside an enclave call, and the returned ticket must be waited on by
// the same call.
func (l *Log) Stage(env *asyncall.Env, rows []Row) (*Ticket, error) {
	t := &Ticket{l: l, start: time.Now(), count: len(rows)}
	if len(rows) == 0 {
		return t, nil
	}
	// Convert values outside the lock, each once, into one array for the
	// group: the entry encoder and the insert both read them as converted.
	// A failure anywhere before the rows enter the pipeline counts as one
	// staging error — nothing was appended, so charging the whole group
	// against audit.append.errors would skew the series relative to
	// audit.appends (durably acknowledged rows).
	nvals := 0
	for _, row := range rows {
		nvals += len(row.Values)
	}
	flat := make([]sqldb.Value, nvals)
	svals := make([][]sqldb.Value, len(rows))
	for i, row := range rows {
		svals[i], flat = flat[:len(row.Values):len(row.Values)], flat[len(row.Values):]
		for j, v := range row.Values {
			sv, err := sqldb.FromGo(v)
			if err != nil {
				mAppendErrors.Inc()
				return nil, err
			}
			svals[i][j] = sv
		}
	}

	if err := l.lockAdmitted(env, len(rows)); err != nil {
		mAppendErrors.Inc()
		return nil, err
	}
	if l.closed {
		l.mu.Unlock()
		mAppendErrors.Inc()
		return nil, ErrClosed
	}
	// Phase 1a: prepare statements and encode entries — everything fallible
	// that does not touch the database.
	encs := make([][]byte, len(rows))
	stmts := make([]*sqldb.Stmt, len(rows))
	fail := func(err error) (*Ticket, error) {
		l.mu.Unlock()
		mAppendErrors.Inc()
		return nil, err
	}
	for i, row := range rows {
		st, err := l.insertStmt(row.Table, len(svals[i]))
		if err != nil {
			return fail(err)
		}
		stmts[i] = st
		entry := &Entry{Seq: l.specSeq.Load() + uint64(i), Table: row.Table, Values: svals[i]}
		encs[i] = entry.Marshal()
	}
	// Phase 1b: insert the rows. A mid-group failure removes the group's
	// earlier inserts again (we hold l.mu, so the trailing rows are ours),
	// keeping Stage atomic: checks never observe a partial group, and a
	// later Trim — which rebuilds the signed log from the database — cannot
	// fold never-staged rows into the verified chain.
	for i := range rows {
		if _, err := stmts[i].ExecValues(svals[i]); err != nil {
			for j := i - 1; j >= 0; j-- {
				l.db.RemoveLastRows(rows[j].Table, 1)
			}
			return fail(err)
		}
	}
	// Phase 2: take sequence numbers and join batches. This cannot fail, so
	// a ticket always covers all of its rows.
	for _, enc := range encs {
		l.specSeq.Add(1)
		if l.cfg.Mode != ModeDisk {
			// Memory mode has no durability step: publish immediately.
			l.seq.Store(l.specSeq.Load())
			mChainLength.Set(int64(l.seq.Load()))
			continue
		}
		b, leader := l.joinBatch(enc)
		if n := len(t.waits); n > 0 && t.waits[n-1].b == b {
			t.waits[n-1].count++
		} else {
			t.waits = append(t.waits, waitRef{b: b, leader: leader, count: 1})
		}
	}
	mStagedPending.Set(int64(l.PendingStaged()))
	l.mu.Unlock()
	return t, nil
}

// lockAdmitted acquires l.mu with room in the staging budget for n more
// entries. A contended acquisition parks as an ocall (Compact holds the lock
// across its rewrite I/O); an lthread must never sleep holding its
// scheduler. When the pipeline is over budget the wait for draining commits
// likewise runs outside the enclave. On success l.mu is held; on error it
// is released.
func (l *Log) lockAdmitted(env *asyncall.Env, n int) error {
	asyncall.Lock(env, &l.mu)
	if l.cfg.Mode != ModeDisk || l.cfg.MaxStaged <= 0 {
		return nil
	}
	// An empty pipeline admits any group (progress for groups larger than
	// the whole budget); otherwise the group must fit under the bound.
	admit := func() bool {
		inflight := l.PendingStaged()
		return inflight == 0 || inflight+n <= l.cfg.MaxStaged
	}
	if admit() {
		return nil
	}
	if l.cfg.AdmitTimeout <= 0 {
		l.mu.Unlock()
		mAdmitShed.Inc()
		return ErrOverloaded
	}
	mAdmitWaits.Inc()
	deadline := time.Now().Add(l.cfg.AdmitTimeout)
	// commitCond broadcasts on every batch outcome, so a draining pipeline
	// wakes the waiter promptly; the timer broadcast bounds the wait when
	// nothing drains (a stalled fsync wakes nobody). sync.Cond rides l.mu,
	// which is explicitly not goroutine-affine — waiting on the ocall thread
	// and returning to the enclave call with the lock held is legal.
	if err := env.Ocall(func() error {
		timer := time.AfterFunc(l.cfg.AdmitTimeout, l.commitCond.Broadcast)
		defer timer.Stop()
		for !l.closed && !admit() && time.Now().Before(deadline) {
			l.commitCond.Wait()
		}
		return nil
	}); err != nil {
		l.mu.Unlock()
		return err
	}
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if !admit() {
		l.mu.Unlock()
		mAdmitShed.Inc()
		return ErrOverloaded
	}
	return nil
}

// PendingStaged returns the number of entries staged into the commit
// pipeline but not yet durable. Read without mu the two loads are not one
// cut (a trim resets both counters downwards), so the difference is clamped.
func (l *Log) PendingStaged() int {
	seq := l.seq.Load()
	if spec := l.specSeq.Load(); spec > seq {
		return int(spec - seq)
	}
	return 0
}

// joinBatch stages one encoded entry into the open batch, opening a new one
// if necessary. Called with l.mu held; reports whether the caller opened the
// batch (and therefore leads its commit).
func (l *Log) joinBatch(enc []byte) (*commitBatch, bool) {
	leader := false
	if l.cur == nil {
		l.cur = &commitBatch{
			turn:  l.nextTurn,
			epoch: l.epoch,
			full:  make(chan struct{}),
			done:  make(chan struct{}),
		}
		l.nextTurn++
		leader = true
	}
	b := l.cur
	b.payloads = append(b.payloads, enc)
	b.endSeq = l.specSeq.Load()
	if len(b.payloads) >= l.cfg.batchMax() {
		b.filled = true
		close(b.full)
		l.cur = nil
	}
	return b, leader
}

// Wait blocks until every batch holding one of the ticket's entries is
// durable, leading the commits this ticket opened. It returns the first
// failure; entries of failed batches are not durable. Must run inside the
// same enclave call that staged the ticket.
func (t *Ticket) Wait(env *asyncall.Env) error {
	var firstErr error
	failed := 0
	for _, w := range t.waits {
		var err error
		if w.leader {
			err = t.l.lead(env, w.b)
		} else {
			// Parking on the batch is an outside-world wait: run it as an
			// ocall so an lthread scheduler is never blocked by a waiter.
			env.Ocall(func() error { <-w.b.done; return nil })
			err = w.b.err
		}
		if err != nil {
			failed += w.count
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if failed > 0 {
		mAppendErrors.Add(int64(failed))
	}
	if ok := t.count - failed; ok > 0 {
		mAppends.Add(int64(ok))
	}
	if firstErr != nil {
		return firstErr
	}
	telemetry.ObserveSince(mAppendLatency, "audit.append", t.start)
	return nil
}

// lead drives one batch through the commit lane: claim the lane when the
// batch's turn comes, then commit it and publish the outcome.
func (l *Log) lead(env *asyncall.Env, b *commitBatch) error {
	// The wait parks the calling slot outside the enclave like any other
	// ocall; a sleeping leader must never pin an lthread scheduler.
	ok := false
	if err := env.Ocall(func() error {
		ok = l.awaitTurn(b)
		return nil
	}); err != nil {
		return err
	}
	if !ok {
		return b.err
	}
	err := l.commitSealed(env, b)
	l.publish(env, b, err)
	return err
}

// laneBusyLocked reports whether b cannot commit yet: an earlier batch's
// commit is in flight or still to come. Called with l.mu held.
func (l *Log) laneBusyLocked(b *commitBatch) bool {
	return l.committing || l.commitTurn != b.turn
}

// awaitTurn blocks until it is b's turn to commit, seals b against new
// joiners and claims the commit lane. On an idle lane that is at once: nobody
// can join a batch faster than by finding its commit in flight. Behind a busy
// lane the leader has to wait anyway, and first gives followers up to
// BatchDelay to fill the batch. It reports false — after failing the batch —
// when an earlier commit's failure invalidated b's chain position. Runs
// outside the enclave.
func (l *Log) awaitTurn(b *commitBatch) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.laneBusyLocked(b) && !b.filled && l.cfg.BatchDelay > 0 {
		b.waited = true
		l.mu.Unlock()
		timer := time.NewTimer(l.cfg.BatchDelay)
		select {
		case <-b.full:
		case <-timer.C:
		}
		timer.Stop()
		l.mu.Lock()
	}
	for l.laneBusyLocked(b) {
		l.commitCond.Wait()
	}
	if l.cur == b {
		l.cur = nil
	}
	if b.epoch != l.epoch {
		b.err = fmt.Errorf("%w: %v", ErrBatchAborted, l.poisonErr)
		l.commitTurn++
		mBatchAborts.Inc()
		close(b.done)
		l.commitCond.Broadcast()
		return false
	}
	l.committing = true
	return true
}

// commitSealed makes a sealed batch durable: its entry records, the chain
// advanced over them, one counter increment, one signature over the batch's
// head, one write and one fsync. The increment is issued once the head is
// known and the signature made while its round trip is in flight, over the
// value it is predicted to return; the record written carries the value it
// did return, so a signature over a wrong guess never leaves the enclave
// (DESIGN.md §11). A degraded batch with no probe due issues none and signs
// once, at the stale anchor. The caller holds the commit lane, so the
// previous batch has published its head and nothing moves chain, counter,
// sigHead or the degraded state under these reads.
func (l *Log) commitSealed(env *asyncall.Env, b *commitBatch) error {
	// A file that failed closed refuses the commit anyway; refuse before
	// spending a counter increment that no signature record would carry, or
	// every failed append widens the lag the next recovery has to tolerate.
	if err := l.file.failed; err != nil {
		return err
	}
	recs := entryRecords(b.payloads)
	b.endChain = batchChain(l.chain, recs)
	asyncall.Lock(env, &l.mu)
	guess := l.counter
	probe := l.cfg.Protector != nil && l.anchorDueLocked()
	l.mu.Unlock()
	var inc *increment
	var err error
	switch {
	case probe:
		inc = l.issueIncrement(env)
		guess++
	case l.cfg.Protector != nil:
		b.degraded = len(b.payloads)
	}
	sig, serr := l.signState(env, b.endChain, guess, l.sigHead)
	counter := guess
	if inc != nil {
		// Collected even when the signature failed: the group has advanced,
		// and the next batch predicts from the value it returned.
		if counter, err = l.collectAnchor(env, b, inc); err != nil {
			return err
		}
	}
	if serr != nil {
		return serr
	}
	if counter != guess {
		mCommitResigns.Inc()
		if sig, err = l.signState(env, b.endChain, counter, l.sigHead); err != nil {
			return err
		}
	}
	b.counter, b.sigHead = counter, sha256.Sum256(sig)
	recs = append(recs, record{typ: recSig, payload: sig})
	return env.Ocall(func() error { return l.file.commit(recs...) })
}

// entryRecords frames encoded entries as entry records, with room for the
// signature record that closes the group.
func entryRecords(encs [][]byte) []record {
	recs := make([]record, 0, len(encs)+1)
	for _, enc := range encs {
		recs = append(recs, record{typ: recEntry, payload: enc})
	}
	return recs
}

// increment is one counter round trip issued ahead of its collection.
type increment struct {
	done  chan struct{}
	value uint64
	err   error
}

// issueIncrement starts a batch's counter increment outside the enclave and
// returns at once: one ocall, the round trip on a goroutine of its own.
func (l *Log) issueIncrement(env *asyncall.Env) *increment {
	inc := &increment{done: make(chan struct{})}
	env.Ocall(func() error {
		go func() {
			inc.value, inc.err = l.cfg.incrementCounter(l.cfg.Name)
			close(inc.done)
		}()
		// Start the round trip now: a new goroutine queues behind the signer.
		runtime.Gosched()
		return nil
	})
	return inc
}

// anchorDueLocked reports whether the batch holding the commit lane asks the
// quorum for an increment. Outside a degraded episode every batch does.
// Inside one only the batch carrying the due probe does — one AnchorTimeout
// after the episode's last failed attempt ended — or a batch the degraded
// budget cannot take, which fails closed only once the quorum has refused it
// too. Called with l.mu and the commit lane held.
func (l *Log) anchorDueLocked() bool {
	pending := l.pendingAnchor.Load()
	return pending == 0 || pending >= int64(l.cfg.DegradedLimit) || !time.Now().Before(l.probeAt)
}

// collectAnchor waits in a second ocall for the batch's increment and
// returns the counter value anchoring the batch: the fresh one, or — when the
// quorum is unreachable and degraded mode has buffer room — the last
// reachable one; the chain stays intact and the next successful anchor
// covers the whole backlog. Called with the commit lane held, so
// pendingAnchor is stable: the previous batch has already published. The
// degraded bookkeeping itself (gap close, backlog growth) is only recorded on
// the batch here and applied by publish once the batch is durable — a batch
// whose write or fsync later fails must not consume the degraded budget or
// claim to have closed a gap.
func (l *Log) collectAnchor(env *asyncall.Env, b *commitBatch, inc *increment) (uint64, error) {
	wait := time.Now()
	env.Ocall(func() error { <-inc.done; return nil })
	telemetry.ObserveSince(mCommitAnchorWait, "audit.commit.anchor_wait", wait)
	asyncall.Lock(env, &l.mu)
	defer l.mu.Unlock()
	if inc.err == nil {
		// The fresh value is published to future signers immediately (the
		// counter service advanced regardless of this batch's fate); whether
		// it closed a degraded gap is decided at publish time.
		l.counter = inc.value
		b.anchorFresh = true
		return inc.value, nil
	}
	l.probeAt = time.Now().Add(l.cfg.AnchorTimeout)
	if l.cfg.DegradedLimit <= 0 {
		return 0, inc.err
	}
	if pending := l.pendingAnchor.Load(); pending >= int64(l.cfg.DegradedLimit) {
		return 0, fmt.Errorf("%w: %d appends pending, last error: %v", ErrDegradedFull, pending, inc.err)
	}
	b.degraded = len(b.payloads)
	return l.counter, nil
}

// publish records a batch's outcome: on success the durable chain head jumps
// to the batch's end; on failure every staged successor is poisoned, since
// its entries' sequence numbers follow entries that never became durable.
func (l *Log) publish(env *asyncall.Env, b *commitBatch, err error) {
	asyncall.Lock(env, &l.mu)
	defer l.mu.Unlock()
	l.committing = false
	l.commitTurn++
	if err == nil {
		l.chain = b.endChain
		l.seq.Store(b.endSeq)
		l.sigCounter, l.sigHead = b.counter, b.sigHead
		switch {
		case b.anchorFresh:
			l.closeGapLocked()
		case b.degraded > 0:
			if l.pendingAnchor.Load() == 0 {
				mDegradedEpisodes.Inc()
			}
			mDegradedPending.Set(l.pendingAnchor.Add(int64(b.degraded)))
		}
		mChainLength.Set(int64(b.endSeq))
		mBatchCommits.Inc()
		mBatchSize.Observe(time.Duration(len(b.payloads)))
		switch {
		case b.filled:
			mFlushFull.Inc()
		case b.waited:
			mFlushDelay.Inc()
		default:
			mFlushIdle.Inc()
		}
	} else {
		l.epoch++
		l.poisonErr = err
		l.specSeq.Store(l.seq.Load())
		// The open batch (if any) follows the failed entries; close it to
		// new joiners. Its leader fails it when its turn comes.
		l.cur = nil
		mBatchAborts.Inc()
	}
	mStagedPending.Set(int64(l.PendingStaged()))
	b.err = err
	close(b.done)
	l.commitCond.Broadcast()
}

// quiesceLocked waits until the commit lane is idle: no open batch, no
// commit in flight, no batch waiting for its turn. Called with l.mu held;
// the condition wait releases it while sleeping.
func (l *Log) quiesceLocked() {
	for l.committing || l.cur != nil || l.commitTurn != l.nextTurn {
		l.commitCond.Wait()
	}
}

// lockQuiesced acquires each log's l.mu, for the caller to release, with its
// commit lane idle — waiting outside the enclave in one ocall (it can span a
// fsync) — so Compact and Reanchor never interleave with a batch's file I/O.
func lockQuiesced(env *asyncall.Env, logs ...*Log) {
	// sync.Mutex is explicitly not goroutine-affine: locking it on the
	// ocall thread and unlocking from the enclave call is legal.
	env.Ocall(func() error {
		for _, l := range logs {
			l.mu.Lock()
			l.quiesceLocked()
		}
		return nil
	})
}

// batchChain is the writers' half of the chain rule (DESIGN.md §9): the head
// after a batch is SHA-256(prev ‖ its entry records exactly as stored), and a
// batch with no entries leaves it where it was. The verifier's half is
// chainVerifier.entry and .sig.
func batchChain(prev [32]byte, entries []record) [32]byte {
	if len(entries) == 0 {
		return prev
	}
	h, hdr := sha256.New(), [5]byte{}
	h.Write(prev[:])
	for _, r := range entries {
		hdr[0] = r.typ
		binary.BigEndian.PutUint32(hdr[1:], uint32(len(r.payload)))
		h.Write(hdr[:])
		h.Write(r.payload)
	}
	return [32]byte(h.Sum(nil))
}

// counterOp runs one operation on the named rollback counter, bounded by
// AnchorTimeout when the protector supports cancellation.
func (c Config) counterOp(name string, increment bool) (uint64, error) {
	cp, ok := c.Protector.(ContextRollbackProtector)
	if !ok || c.AnchorTimeout <= 0 {
		if increment {
			return c.Protector.Increment(name)
		}
		return c.Protector.Read(name)
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.AnchorTimeout)
	defer cancel()
	if increment {
		return cp.IncrementContext(ctx, name)
	}
	return cp.ReadContext(ctx, name)
}

// incrementCounter advances the named rollback counter. Like every counter
// operation it is a network round trip and runs outside the enclave: under
// the async bridge a wait made inside pins the lthread scheduler and every
// sibling task with it.
func (c Config) incrementCounter(name string) (uint64, error) { return c.counterOp(name, true) }

// readCounter reads the named counter's stable value. Runs outside the
// enclave.
func (c Config) readCounter(name string) (uint64, error) { return c.counterOp(name, false) }

// freshCounter advances the log's own rollback counter, as an ocall.
func (l *Log) freshCounter(env *asyncall.Env) (c uint64, err error) {
	err = env.Ocall(func() (err error) {
		c, err = l.cfg.incrementCounter(l.cfg.Name)
		return err
	})
	return c, err
}

// Reanchor attempts to close a degraded-mode gap by anchoring the chain at
// a fresh counter value; it is a no-op when the log is healthy. Must run
// inside an enclave call.
func (l *Log) Reanchor(env *asyncall.Env) error {
	lockQuiesced(env, l)
	defer l.mu.Unlock()
	if l.pendingAnchor.Load() == 0 || l.cfg.Protector == nil || l.cfg.Mode != ModeDisk {
		return nil
	}
	c, err := l.freshCounter(env)
	if err != nil {
		return err
	}
	return l.anchorSignature(env, c)
}

// anchorSignature appends one signature record re-attesting the durable
// chain head at the fresh counter value c, which thereby covers every entry
// in the file. Called with l.mu held (or the log not yet shared) and the
// commit lane idle.
func (l *Log) anchorSignature(env *asyncall.Env, c uint64) error {
	l.counter = c
	sig, err := l.signState(env, l.chain, c, l.sigHead)
	if err != nil {
		return err
	}
	if err := env.Ocall(func() error { return l.file.commit(record{typ: recSig, payload: sig}) }); err != nil {
		return err
	}
	l.sigCounter, l.sigHead = c, sha256.Sum256(sig)
	l.closeGapLocked()
	return nil
}

// closeGapLocked records that a durable signature at a fresh counter value
// now anchors every entry buffered while the quorum was away, and flags the
// closed degraded episode. Called with l.mu held.
func (l *Log) closeGapLocked() {
	if l.pendingAnchor.Load() == 0 {
		return
	}
	l.gaps.Add(1)
	l.pendingAnchor.Store(0)
	mGaps.Inc()
	mDegradedPending.Set(0)
}

// sigDigest is the message a signature record attests: the chain head after
// the batch, the counter value that anchored it, and prev, the SHA-256 of the
// previous signature record's payload in the same file (zero for a file's
// first). The link is what lets one valid signature vouch for every signature
// record before it; it is a link and not a fold into the entry chain because
// ECDSA signatures are randomised, so a signature record's bytes are not
// known until it is signed. The writers (signState, the synthetic writer) and
// the verifier must agree on it byte for byte.
func sigDigest(chain [32]byte, counter uint64, prev [32]byte) []byte {
	var buf [72]byte
	copy(buf[:32], chain[:])
	binary.BigEndian.PutUint64(buf[32:], counter)
	copy(buf[40:], prev[:])
	digest := sha256.Sum256(buf[:])
	return digest[:]
}

// sigRecordMax bounds a signature record's footprint on disk: its header, the
// 72 fixed bytes, and two length-prefixed P-256 scalars of at most 32 bytes.
const sigRecordMax = 5 + 72 + 2*(4+32)

// sigPayload lays out a signature record: chain[32] ‖ counter[8] ‖ prev[32] ‖
// str(R) ‖ str(S), the strings length-prefixed as in the entry codec.
func sigPayload(chain [32]byte, counter uint64, prev [32]byte, r, s []byte) []byte {
	out := make([]byte, 0, 72+4+len(r)+4+len(s))
	out = append(out, chain[:]...)
	out = binary.BigEndian.AppendUint64(out, counter)
	out = append(out, prev[:]...)
	for _, scalar := range [][]byte{r, s} {
		out = binary.BigEndian.AppendUint32(out, uint32(len(scalar)))
		out = append(out, scalar...)
	}
	return out
}

// signState signs (chain head, counter, prev) with the enclave report key and
// returns the signature record's payload.
func (l *Log) signState(env *asyncall.Env, chain [32]byte, counter uint64, prev [32]byte) ([]byte, error) {
	sig, err := env.Ctx.Sign(sigDigest(chain, counter, prev))
	if err != nil {
		return nil, err
	}
	mSignatures.Inc()
	return sigPayload(chain, counter, prev, sig.R, sig.S), nil
}

// rewrite is one shard's share of a compaction (§5.1, "Log trimming"): its
// partition of the rows the database holds becomes the shard's whole log, the
// chain recomputed from zero, re-anchored at a fresh counter value, re-signed,
// and the file replaced crash-safely. ShardedLog.Compact takes every shard's
// rewrite through these steps side by side, building while the counters are
// in flight; l.mu is held and the commit lane quiesced throughout. The
// compaction lands every shard's rewrite or none.
type rewrite struct {
	encs    [][]byte // surviving entries, in sequence order
	chain   [32]byte // chain head over their records, one batch from zero
	recs    []record // the new image: the entries, then the signature
	sigHead [32]byte // digest of that signature record's payload
	// The fresh anchor, written outside the enclave while the image is built.
	counter   uint64
	anchorErr error
}

// build frames and chains a shard's partition inside the enclave — one batch
// from zero: the part of the image that does not depend on the counter.
func (rw *rewrite) build(encs [][]byte) {
	rw.encs = encs
	rw.recs = entryRecords(encs)
	rw.chain = batchChain([32]byte{}, rw.recs)
}

// signRewrite completes the image once the anchor is in: the new chain head
// signed at the fresh counter value (the last one without a protector).
func (l *Log) signRewrite(env *asyncall.Env, rw *rewrite) error {
	if err := rw.anchorErr; err != nil {
		return err
	}
	if l.cfg.Protector != nil {
		l.counter = rw.counter
	}
	rw.counter = l.counter
	// The image's one signature record is its file's first: prev is zero.
	sig, err := l.signState(env, rw.chain, l.counter, [32]byte{})
	if err != nil {
		return err
	}
	rw.sigHead = sha256.Sum256(sig)
	rw.recs = append(rw.recs, record{typ: recSig, payload: sig})
	return nil
}

// adoptRewrite moves the in-memory chain onto the new image once the
// compaction got past its first rename: the file is the new image, or the
// restart completes the land that makes it so.
func (l *Log) adoptRewrite(rw *rewrite) {
	l.chain = rw.chain
	l.seq.Store(uint64(len(rw.encs)))
	l.specSeq.Store(uint64(len(rw.encs)))
	mChainLength.Set(int64(len(rw.encs)))
	mStagedPending.Set(0)
	l.sigCounter, l.sigHead = rw.counter, rw.sigHead
	l.closeGapLocked() // the fresh anchor covers everything that was buffered
}

// Close releases the log's outside resources. In-flight batches are drained
// first; new appends fail with ErrClosed. Runs outside the enclave.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.quiesceLocked()
	if l.file == nil {
		return nil
	}
	return l.file.close()
}

// replay is recovery's OnSegment for the shard: it inserts a verified
// segment's rows into the set's shared database, whose schema is already in
// place. Between compactions the file holds rows the database had already
// trimmed away; they come back, and the first trim after recovery removes
// them again.
func (l *Log) replay(si SegmentInfo) error {
	for _, e := range si.Entries() {
		st, err := l.insertStmt(e.Table, len(e.Values))
		if err != nil {
			return err
		}
		if _, err := st.ExecValues(e.Values); err != nil {
			return err
		}
	}
	return nil
}

// resume adopts the shard's image once recovery's verdict is in: res is its
// verification, onDisk its length. The chain moves to the verified commit
// point, the file is reopened for appending with the crash debris past that
// point cut off — records past the last signed prefix were never acknowledged
// as durable — and the chain is re-anchored at a fresh counter value.
func (l *Log) resume(env *asyncall.Env, res *StreamResult, onDisk int64) error {
	cfg := l.cfg
	l.chain = res.Chain
	l.seq.Store(uint64(res.TotalEntries))
	l.specSeq.Store(l.seq.Load())
	l.counter = res.Counter
	l.sigCounter, l.sigHead = res.Counter, res.SigHead
	if err := env.Ocall(func() error { return l.file.open(res.CommittedBytes, onDisk) }); err != nil {
		return err
	}
	if cfg.Protector != nil {
		// Re-anchor at a fresh counter value: if the crash lost an in-flight
		// increment, the recovered log would otherwise keep signing at a
		// value behind the group and fail strict client verification.
		c, err := l.freshCounter(env)
		if err == nil {
			return l.anchorSignature(env, c)
		}
		// No fresh value to be had right now; fall back to the stable read.
		// The next successful append or Reanchor closes the lag.
		if rerr := env.Ocall(func() (rerr error) {
			c, rerr = cfg.readCounter(cfg.Name)
			return rerr
		}); rerr != nil {
			return err
		}
		if c > l.counter {
			l.counter = c
		}
	}
	return nil
}
