package mirror

import (
	"bufio"
	"context"
	"crypto/ecdsa"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"libseal/internal/audit"
	"libseal/internal/resilience"
	"libseal/internal/telemetry"
)

// ErrMirrorLagging reports that the mirror has fallen further behind the
// server's committed state than the configured bound. A feed cannot make
// tampered bytes verify, but it can withhold bytes; bounded staleness is
// what turns withholding into an alarm instead of silence.
var ErrMirrorLagging = errors.New("mirror: replication lag exceeds configured bound")

var (
	mMirrorLag        = telemetry.NewGauge("mirror.lag.bytes", "bytes")
	mMirrorSeq        = telemetry.NewGauge("mirror.verified.seq", "entries")
	mMirrorEntries    = telemetry.NewCounter("mirror.verified.entries", "entries")
	mMirrorReconnects = telemetry.NewCounter("mirror.reconnects", "dials")
	mMirrorViolations = telemetry.NewCounter("mirror.violations", "violations")
)

const (
	defaultBackoffMin      = 100 * time.Millisecond
	defaultBackoffMax      = 5 * time.Second
	defaultReadTimeout     = 10 * time.Second
	defaultRestartGrace    = 10 * time.Second
	defaultCheckpointEvery = 1 * time.Second
	checkTick              = 100 * time.Millisecond
	// commitWindow is how many recent commit points per shard the mirror
	// remembers for manifest membership checks.
	commitWindow = 1024
)

// Config describes a mirror session.
type Config struct {
	// Addr is the server's replication listener (FeedConfig side).
	Addr string
	// Name is the log-set name; it binds manifest digests and the
	// checkpoint sidecar.
	Name string
	// Pub is the enclave's signing public key — the ONLY trust anchor the
	// mirror holds. Required.
	Pub *ecdsa.PublicKey
	// Unseal decrypts sealed entries; required when the log is sealed.
	Unseal func([]byte) ([]byte, error)
	// CheckpointPath, when set, persists the mirror's resume state so a
	// restarted mirror continues from its verified prefix instead of
	// re-verifying from byte zero.
	CheckpointPath string
	// OnViolation observes the first (latching) violation. The mirror
	// stops verifying once a violation latches: its attestation is void.
	OnViolation func(error)
	// Dial overrides the transport (tests, in-process links). Default is a
	// TCP dial of Addr.
	Dial func(ctx context.Context) (net.Conn, error)
	// BackoffMin / BackoffMax bound the reconnect backoff (defaults
	// 100ms / 5s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Breaker guards dialing: repeated dial failures open the breaker so a
	// dead server is probed, not hammered.
	Breaker resilience.BreakerConfig
	// ReadTimeout bounds how long a live session may go without a single
	// frame before the link is declared dead (default 10s; the feed
	// heartbeats with tail frames each poll interval).
	ReadTimeout time.Duration
	// MaxLag, when > 0, is the staleness bound in bytes: once the mirror
	// has caught up once, reported lag beyond this raises
	// ErrMirrorLagging.
	MaxLag int64
	// RestartGrace bounds how long a restarted stream may run without
	// re-attaining the mirror's verified counter floor (default 10s): an
	// honest trim re-signs with current counters almost immediately, so a
	// stream that stays below the floor is serving a rolled-back file.
	RestartGrace time.Duration
	// CheckpointEvery is the minimum interval between sidecar writes
	// (default 1s).
	CheckpointEvery time.Duration
}

func (c *Config) backoffMin() time.Duration {
	if c.BackoffMin <= 0 {
		return defaultBackoffMin
	}
	return c.BackoffMin
}

func (c *Config) backoffMax() time.Duration {
	if c.BackoffMax <= 0 {
		return defaultBackoffMax
	}
	return c.BackoffMax
}

func (c *Config) readTimeout() time.Duration {
	if c.ReadTimeout <= 0 {
		return defaultReadTimeout
	}
	return c.ReadTimeout
}

func (c *Config) restartGrace() time.Duration {
	if c.RestartGrace <= 0 {
		return defaultRestartGrace
	}
	return c.RestartGrace
}

func (c *Config) checkpointEvery() time.Duration {
	if c.CheckpointEvery <= 0 {
		return defaultCheckpointEvery
	}
	return c.CheckpointEvery
}

// commitPt is one remembered commit point for manifest membership checks.
type commitPt struct {
	chain   [32]byte
	counter uint64
}

// obligation is a manifest attestation the shard stream has not yet caught
// up to: the attested state must appear at that sequence once it does. One
// that awaits a restart was made by a rewritten sidecar before the shard's
// stream restarted onto its rewritten file (compaction renames the shards'
// files first, but their restart frames can reach the mirror after the
// sidecar's): the stream it is judged against may be the one the rewrite
// replaced, so a disagreement is held in mismatch, not reported, until the
// shard restarts or its staleness lapses.
type obligation struct {
	seq          uint64
	st           audit.ShardState
	epoch        uint64
	deadline     time.Time
	awaitRestart bool
	mismatch     error
}

// shardState is the mirror's per-shard memory; it outlives sessions.
type shardState struct {
	// ckpt is the last verified commit point, the resume claim for the
	// next session. maxCounter is the continuity floor.
	ckpt       *audit.Checkpoint
	maxCounter uint64

	// needCounter, when non-zero, is the floor a restarted stream must
	// re-attain; needSince is when the obligation was first armed.
	needCounter uint64
	needSince   time.Time

	// Session-scoped verification state.
	v          *audit.IncrementalVerifier
	baseSeq    uint64
	serverSize int64
	sized      bool
	commits    map[uint64]commitPt
	order      []uint64
	pending    []obligation
	resumed    bool
	// A compaction restarts the sidecar's stream and the shards', in
	// whichever order the feed delivers them. staleUntil, when set, is when
	// the wait for this shard's restart after the sidecar's lapses;
	// restartedAt, when set, is a shard restart still to be paired with the
	// sidecar's.
	staleUntil  time.Time
	restartedAt time.Time
}

// manifestMem is the mirror's sidecar memory. seeded: a manifest has been
// verified, in this run or by the one that wrote the checkpoint.
type manifestMem struct {
	offset  int64
	recOff  int64
	recHash string
	epoch   uint64
	counter uint64
	count   int
	seeded  bool
}

// Mirror is a follower continuously verifying a live log over its feed.
type Mirror struct {
	cfg     Config
	breaker *resilience.Breaker
	cancel  context.CancelFunc
	done    chan struct{}

	mu          sync.Mutex
	connected   bool
	established time.Time
	sessions    int
	restarts    int
	shards      []*shardState
	mem         manifestMem
	msize       int64
	replayer    *audit.ManifestReplayer
	mreader     *audit.IncrementalManifestReader
	lag         int64
	everCaught  bool
	violation   error
	dirty       bool
	lastSave    time.Time
}

// Start attaches a mirror to a feed and begins continuous verification in
// the background. The returned Mirror reconnects with breaker-guarded
// exponential backoff until Stop or a violation latches.
func Start(ctx context.Context, cfg Config) (*Mirror, error) {
	if cfg.Pub == nil {
		return nil, errors.New("mirror: Config.Pub is required — the public key is the mirror's only trust anchor")
	}
	if cfg.Name == "" {
		return nil, errors.New("mirror: Config.Name is required")
	}
	if cfg.Addr == "" && cfg.Dial == nil {
		return nil, errors.New("mirror: Config needs Addr or Dial")
	}
	m := &Mirror{
		cfg:     cfg,
		breaker: resilience.NewBreaker("mirror.dial", cfg.Breaker),
		done:    make(chan struct{}),
	}
	if cfg.CheckpointPath != "" {
		st, err := loadState(cfg.CheckpointPath, cfg.Name)
		if err != nil {
			return nil, err
		}
		if st != nil {
			m.adoptState(st)
		}
	}
	ctx, m.cancel = context.WithCancel(ctx)
	go m.run(ctx)
	return m, nil
}

// adoptState restores persisted memory. Shard checkpoints are claims, not
// facts: each is re-proved against the feed's signature record before a
// session resumes from it.
func (m *Mirror) adoptState(st *state) {
	m.shards = make([]*shardState, len(st.Shards))
	for k := range st.Shards {
		sh := &shardState{ckpt: st.Shards[k], commits: make(map[uint64]commitPt)}
		if k < len(st.MaxCounter) {
			sh.maxCounter = st.MaxCounter[k]
		}
		m.shards[k] = sh
	}
	if st.Manifest != nil {
		m.mem = manifestMem{
			offset: st.Manifest.Offset, recOff: st.Manifest.RecOff, recHash: st.Manifest.RecHash,
			epoch: st.Manifest.Epoch, counter: st.Manifest.Counter, count: st.Manifest.Count,
			seeded: true,
		}
	}
}

// Stop shuts the mirror down, persisting a final checkpoint. It returns
// once the background loop has exited or ctx expires.
func (m *Mirror) Stop(ctx context.Context) error {
	m.cancel()
	select {
	case <-m.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Done is closed when the background loop has exited (Stop or a latched
// violation).
func (m *Mirror) Done() <-chan struct{} { return m.done }

// Err returns the latched violation, nil while the mirror is clean.
func (m *Mirror) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.violation
}

// Report renders the mirror's position and verified state, under one lock,
// in the unified Report shape shared with the one-shot verifiers, with Live
// set. The latched violation, if any, is Err's.
func (m *Mirror) Report() *audit.Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := &audit.Report{
		Live: true, Connected: m.connected, CaughtUp: m.everCaught,
		Reconnects: max(0, m.sessions-1), Restarts: m.restarts, LagBytes: m.lag,
		Manifests: m.mem.count, Epoch: m.mem.epoch, Tables: make(map[string]int),
	}
	for _, sh := range m.shards {
		if sh.v == nil {
			continue
		}
		r.TotalEntries += int(sh.v.Seq())
		r.TotalBatches += sh.v.Batches()
		r.CommittedBytes += sh.v.Offset()
		r.Resumed = r.Resumed || sh.resumed
		for t, n := range sh.v.Tables() {
			r.Tables[t] += n
		}
	}
	return r
}

// violate latches the first violation and notifies.
func (m *Mirror) violate(err error) {
	m.mu.Lock()
	if m.violation != nil {
		m.mu.Unlock()
		return
	}
	m.violation = err
	m.mu.Unlock()
	mMirrorViolations.Inc()
	if m.cfg.OnViolation != nil {
		m.cfg.OnViolation(err)
	}
}

func (m *Mirror) dial(ctx context.Context) (net.Conn, error) {
	if m.cfg.Dial != nil {
		return m.cfg.Dial(ctx)
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", m.cfg.Addr)
}

// run is the reconnect loop: breaker-guarded dial, session, backoff.
func (m *Mirror) run(ctx context.Context) {
	defer close(m.done)
	defer m.saveCheckpoint()
	backoff := m.cfg.backoffMin()
	for ctx.Err() == nil && m.Err() == nil {
		if err := m.breaker.Allow(); err != nil {
			if !sleepCtx(ctx, m.cfg.backoffMin()) {
				return
			}
			continue
		}
		conn, err := m.dial(ctx)
		if err != nil {
			m.breaker.Failure()
			if !sleepCtx(ctx, backoff) {
				return
			}
			backoff = min(backoff*2, m.cfg.backoffMax())
			continue
		}
		m.breaker.Success()
		established := m.session(ctx, conn)
		conn.Close()
		m.mu.Lock()
		m.connected = false
		m.mu.Unlock()
		if established {
			backoff = m.cfg.backoffMin()
			mMirrorReconnects.Inc()
		} else {
			if !sleepCtx(ctx, backoff) {
				return
			}
			backoff = min(backoff*2, m.cfg.backoffMax())
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// session runs one connection: handshake, then the frame loop. It reports
// whether the handshake completed (for backoff reset).
func (m *Mirror) session(ctx context.Context, conn net.Conn) bool {
	br := bufio.NewReaderSize(conn, 64<<10)
	if err := m.handshake(conn, br); err != nil {
		return false
	}
	m.mu.Lock()
	m.connected = true
	m.established = time.Now()
	m.sessions++
	// A reconnect restores obligations whose clocks ran while the link was
	// down; their deadlines measure connected time, so extend them.
	grace := m.cfg.restartGrace()
	floor := time.Now().Add(grace)
	for _, sh := range m.shards {
		for i := range sh.pending {
			if sh.pending[i].deadline.Before(floor) {
				sh.pending[i].deadline = floor
			}
		}
	}
	m.mu.Unlock()

	type recvFrame struct {
		typ     byte
		payload []byte
	}
	frames := make(chan recvFrame, 16)
	errc := make(chan error, 1)
	sessDone := make(chan struct{})
	defer close(sessDone)
	go func() {
		for {
			conn.SetReadDeadline(time.Now().Add(m.cfg.readTimeout()))
			typ, payload, err := readFrame(br)
			if err != nil {
				select {
				case errc <- err:
				case <-sessDone:
				}
				return
			}
			select {
			case frames <- recvFrame{typ, payload}:
			case <-sessDone:
				return
			}
		}
	}()

	ticker := time.NewTicker(checkTick)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return true
		case <-errc:
			return true // link error; reconnect
		case fr := <-frames:
			if err := m.handleFrame(fr.typ, fr.payload); err != nil {
				m.violate(err)
				return true
			}
		case <-ticker.C:
		}
		if err := m.timeChecks(); err != nil {
			m.violate(err)
			return true
		}
		m.maybeCheckpoint()
	}
}

// handshake sends the hello with this mirror's resume claims and
// authenticates the ack's proofs, deciding resume vs cold restart per lane.
func (m *Mirror) handshake(conn net.Conn, br *bufio.Reader) error {
	m.mu.Lock()
	hello := helloMsg{Name: m.cfg.Name}
	for _, sh := range m.shards {
		var claim shardResume
		if sh.ckpt != nil {
			claim = shardResume{Offset: sh.ckpt.Offset, SigOffset: sh.ckpt.SigOffset, SigHash: sh.ckpt.SigHash}
		}
		hello.Shards = append(hello.Shards, claim)
	}
	if m.mem.offset > 0 {
		hello.Manifest = &manifestResume{Offset: m.mem.offset, RecOff: m.mem.recOff, RecHash: m.mem.recHash}
	}
	m.mu.Unlock()

	conn.SetWriteDeadline(time.Now().Add(m.cfg.readTimeout()))
	if err := writeFrame(conn, frameHello, marshalJSONFrame(hello)); err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Time{})
	conn.SetReadDeadline(time.Now().Add(m.cfg.readTimeout()))
	typ, payload, err := readFrame(br)
	if err != nil {
		return err
	}
	if typ != frameAck {
		return fmt.Errorf("mirror: expected ack, got %q", typ)
	}
	var ack ackMsg
	if err := unmarshalStrict(payload, &ack); err != nil {
		return err
	}
	if ack.ShardsTotal <= 0 || ack.ShardsTotal > 1<<12 {
		return fmt.Errorf("mirror: implausible shard count %d", ack.ShardsTotal)
	}
	if !ack.Manifested {
		// Every persisted set has its sidecar: a feed that says otherwise is
		// asking the mirror to drop the cross-shard and tail evidence.
		err := fmt.Errorf("%w: feed reports a log set without its manifest sidecar", audit.ErrTampered)
		m.violate(err)
		return err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.shards == nil {
		m.shards = make([]*shardState, ack.ShardsTotal)
		for k := range m.shards {
			m.shards[k] = &shardState{commits: make(map[uint64]commitPt)}
		}
	} else if len(m.shards) != ack.ShardsTotal {
		// A shard-count change under a mirror with verified state cannot be
		// distinguished from serving a different log set; refuse to adapt.
		m.mu.Unlock()
		m.violate(fmt.Errorf("%w: feed reports %d shards, mirror verified %d", audit.ErrTampered, ack.ShardsTotal, len(m.shards)))
		m.mu.Lock()
		return m.violation
	}
	now := time.Now()
	for k, sh := range m.shards {
		resumed := false
		if sh.ckpt != nil && k < len(ack.Shards) && ack.Shards[k].Ok {
			if sh.ckpt.MatchProof(ack.Shards[k].Proof, m.cfg.Pub) == nil {
				v := audit.NewIncrementalVerifier(m.verifyOpts(), m.onCommit(k))
				if err := v.Resume(sh.ckpt); err == nil {
					sh.v = v
					sh.resumed = true
					resumed = true
				}
			}
		}
		if !resumed {
			m.coldRestartLocked(k, sh, now)
		}
		sh.baseSeq = sh.v.Seq()
		sh.sized = false
	}
	m.newManifestLaneLocked()
	if m.mem.offset > 0 && ack.ManifestOk && audit.MatchManifestProof(ack.ManifestProof, m.cfg.Name, m.cfg.Pub,
		m.mem.offset, m.mem.recOff, m.mem.recHash, m.mem.epoch, m.mem.counter) == nil {
		m.mreader.ResumeAt(m.mem.offset, m.mem.recOff, m.mem.recHash)
	} else {
		m.mem.offset, m.mem.recOff, m.mem.recHash = 0, 0, ""
	}
	return nil
}

// newManifestLaneLocked starts the manifest lane from the sidecar's head: a
// fresh reader, and a replayer that expects the feed's shard count and, once
// a manifest has been verified, an epoch past the verified floor.
func (m *Mirror) newManifestLaneLocked() {
	m.replayer = &audit.ManifestReplayer{Name: m.cfg.Name, Pub: m.cfg.Pub, Shards: len(m.shards)}
	if m.mem.seeded {
		m.replayer.Seed(m.mem.epoch, m.mem.counter)
	}
	m.mreader = audit.NewIncrementalManifestReader(m.onManifest)
}

// coldRestartLocked resets a shard to a from-zero stream and arms the
// continuity obligation: if the mirror ever verified counters on this
// shard, the fresh stream must climb back past the floor or it is a
// rolled-back file.
func (m *Mirror) coldRestartLocked(k int, sh *shardState, now time.Time) {
	hadState := sh.v != nil || sh.ckpt != nil || sh.maxCounter > 0
	sh.v = audit.NewIncrementalVerifier(m.verifyOpts(), m.onCommit(k))
	sh.resumed = false
	sh.ckpt = nil
	sh.commits = make(map[uint64]commitPt)
	sh.order = sh.order[:0]
	// The obligations the rewritten sidecar made are this stream's to meet;
	// the rest were the replaced stream's.
	kept := sh.pending[:0]
	for _, ob := range sh.pending {
		if ob.awaitRestart {
			ob.awaitRestart, ob.mismatch = false, nil
			kept = append(kept, ob)
		}
	}
	sh.pending, sh.staleUntil, sh.restartedAt = kept, time.Time{}, time.Time{}
	if sh.maxCounter > 0 && sh.needCounter == 0 {
		sh.needCounter = sh.maxCounter
		sh.needSince = now
	}
	if hadState {
		m.restarts++
	}
	m.dirty = true
}

func (m *Mirror) verifyOpts() audit.VerifyOptions {
	return audit.VerifyOptions{Pub: m.cfg.Pub, Unseal: m.cfg.Unseal}
}

// onCommit wires shard k's verifier callback.
func (m *Mirror) onCommit(k int) func(audit.CommitInfo) error {
	return func(ci audit.CommitInfo) error { return m.commitLocked(m.shards[k], k, ci) }
}

// commitLocked absorbs one verified commit point. Caller holds m.mu (the
// verifier is only fed under it).
func (m *Mirror) commitLocked(sh *shardState, k int, ci audit.CommitInfo) error {
	sh.commits[ci.Seq] = commitPt{ci.Chain, ci.Counter}
	sh.order = append(sh.order, ci.Seq)
	for len(sh.order) > commitWindow {
		delete(sh.commits, sh.order[0])
		sh.order = sh.order[1:]
	}
	if ci.Counter > sh.maxCounter {
		sh.maxCounter = ci.Counter
	}
	if sh.needCounter > 0 && ci.Counter >= sh.needCounter {
		sh.needCounter = 0
	}
	m.dirty = true
	mMirrorEntries.Add(int64(ci.Entries))
	mMirrorSeq.Set(int64(ci.Seq))
	// Obligations matured by this commit: the attested state must now be a
	// member of the shard's verified commit set.
	rest := sh.pending[:0]
	for _, ob := range sh.pending {
		if ob.seq <= ci.Seq && ob.mismatch == nil {
			ob.mismatch = m.checkAttestedLocked(sh, k, ob)
			if ob.mismatch == nil {
				continue
			}
			if !ob.awaitRestart {
				return ob.mismatch
			}
		}
		rest = append(rest, ob)
	}
	sh.pending = rest
	return nil
}

// checkAttestedLocked checks one matured manifest obligation against the
// shard's verified commit points — the live form of the offline verifier's
// commit-set membership check.
func (m *Mirror) checkAttestedLocked(sh *shardState, k int, ob obligation) error {
	pt, ok := sh.commits[ob.seq]
	if !ok {
		// Outside the remembered window (or before this session's resume
		// point): tolerated, the offline verifier still covers it.
		if len(sh.order) == 0 || ob.seq < sh.order[0] || ob.seq <= sh.baseSeq {
			return nil
		}
		return fmt.Errorf("%w: manifest epoch %d attests shard %d state at seq %d, which is not a verified commit point (shard rolled back)",
			audit.ErrBadCounter, ob.epoch, k, ob.seq)
	}
	if pt.chain != ob.st.Chain || pt.counter != ob.st.Counter {
		return fmt.Errorf("%w: manifest epoch %d attests shard %d state at seq %d that disagrees with the verified log (shard rolled back)",
			audit.ErrBadCounter, ob.epoch, k, ob.seq)
	}
	return nil
}

// onManifest absorbs one verified manifest: replay checks, floor advance,
// and per-shard attestation obligations. Caller holds m.mu.
func (m *Mirror) onManifest(man *audit.Manifest) error {
	if err := m.replayer.Verify(man); err != nil {
		return err
	}
	m.mem.epoch, m.mem.counter = man.Epoch, man.Counter
	m.mem.count++
	m.mem.offset = m.mreader.Offset()
	m.mem.recOff, m.mem.recHash = m.mreader.LastRecord()
	m.mem.seeded = true
	m.dirty = true
	deadline := time.Now().Add(m.cfg.restartGrace())
	for k, st := range man.Shards {
		sh := m.shards[k]
		if st.Seq == 0 && st.Counter == 0 && st.Chain == ([32]byte{}) {
			continue // shard empty at this epoch: nothing to attest
		}
		ob := obligation{seq: st.Seq, st: st, epoch: man.Epoch, deadline: deadline, awaitRestart: !sh.staleUntil.IsZero()}
		if st.Seq <= sh.v.Seq() {
			ob.mismatch = m.checkAttestedLocked(sh, k, ob)
			if ob.mismatch == nil {
				continue
			}
			if !ob.awaitRestart {
				return ob.mismatch
			}
		}
		sh.pending = append(sh.pending, ob)
	}
	return nil
}

// handleFrame dispatches one feed frame.
func (m *Mirror) handleFrame(typ byte, payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch typ {
	case frameData:
		if len(payload) < 2 {
			return errors.New("mirror: malformed data frame")
		}
		k := int(payload[0])<<8 | int(payload[1])
		if k >= len(m.shards) {
			return fmt.Errorf("mirror: data frame for unknown shard %d", k)
		}
		sh := m.shards[k]
		if err := sh.v.Feed(payload[2:]); err != nil {
			return err
		}
		// The frame's commits were reported after one ECDSA check, on its
		// last signature record; that commit point is the checkpointable one.
		if sh.ckpt == nil || sh.ckpt.Batches != sh.v.Batches() {
			sh.ckpt = sh.v.Checkpoint(k)
		}
		return nil
	case frameManifest:
		return m.mreader.Feed(payload)
	case frameRestart:
		if len(payload) < 2 {
			return errors.New("mirror: malformed restart frame")
		}
		k := int(payload[0])<<8 | int(payload[1])
		now := time.Now()
		if k == manifestShard {
			// A shard that restarted within the grace before the sidecar did
			// was rewritten by the same compaction; the rest have a restart
			// to come, or were not rewritten.
			grace := m.cfg.restartGrace()
			for _, sh := range m.shards {
				if sh.restartedAt.IsZero() || now.Sub(sh.restartedAt) > grace {
					sh.staleUntil = now.Add(grace)
				}
				sh.restartedAt = time.Time{}
			}
			m.newManifestLaneLocked()
			m.mem.offset, m.mem.recOff, m.mem.recHash = 0, 0, ""
			m.dirty = true
			return nil
		}
		if k >= len(m.shards) {
			return fmt.Errorf("mirror: restart frame for unknown shard %d", k)
		}
		sh := m.shards[k]
		awaited := !sh.staleUntil.IsZero()
		m.coldRestartLocked(k, sh, now)
		if !awaited {
			sh.restartedAt = now
		}
		sh.baseSeq = 0
		return nil
	case frameTail:
		var t tailMsg
		if err := unmarshalStrict(payload, &t); err != nil {
			return err
		}
		return m.tailLocked(t)
	default:
		return fmt.Errorf("mirror: unknown frame type %q", typ)
	}
}

// tailLocked places the mirror against the server's committed sizes: lag
// accounting and the caught-up continuity checks.
func (m *Mirror) tailLocked(t tailMsg) error {
	var lag int64
	for k, sh := range m.shards {
		if k < len(t.Shards) {
			sh.serverSize = t.Shards[k]
			sh.sized = true
		}
		if d := sh.serverSize - sh.v.Offset(); d > 0 {
			lag += d
		}
	}
	m.msize = t.Manifest
	if d := m.msize - (m.mreader.Offset() + int64(m.mreader.Buffered())); d > 0 {
		lag += d
	}
	m.lag = lag
	mMirrorLag.Set(lag)
	if lag == 0 {
		// The sidecar holds at least the set's creation manifest, so a mirror
		// level with the feed has verified one; otherwise the feed is serving
		// the shards without the sidecar that binds them.
		if !m.mem.seeded {
			return fmt.Errorf("%w: caught up with the feed without verifying a manifest: the set's manifest sidecar is missing", audit.ErrTampered)
		}
		m.everCaught = true
	}
	if m.cfg.MaxLag > 0 && m.everCaught && lag > m.cfg.MaxLag {
		return fmt.Errorf("%w: %d bytes behind (bound %d)", ErrMirrorLagging, lag, m.cfg.MaxLag)
	}
	return m.continuityLocked(time.Now())
}

// continuityLocked applies the rollback-by-continuity rules: a restarted
// shard stream that has caught up to the server's committed size — or been
// streaming for the whole restart grace — without re-attaining the
// verified counter floor is serving a rolled-back file. Likewise a matured
// manifest obligation on a caught-up shard.
func (m *Mirror) continuityLocked(now time.Time) error {
	grace := m.cfg.restartGrace()
	for k, sh := range m.shards {
		caught := sh.sized && sh.v.Offset() >= sh.serverSize
		if sh.needCounter > 0 {
			since := sh.needSince
			if m.established.After(since) {
				since = m.established
			}
			if caught || now.Sub(since) > grace {
				return fmt.Errorf("%w: shard %d stream restarted but never re-attained verified counter %d (last %d): shard rolled back",
					audit.ErrBadCounter, k, sh.needCounter, sh.v.MaxCounter())
			}
		}
		if !sh.staleUntil.IsZero() && now.After(sh.staleUntil) {
			// The shard never restarted: the rewritten sidecar's claims are
			// judged against the stream there is, as a sidecar swapped on its
			// own must be. Those it disagreed with are violations.
			sh.staleUntil = time.Time{}
			for i := range sh.pending {
				if err := sh.pending[i].mismatch; err != nil {
					return err
				}
				sh.pending[i].awaitRestart = false
			}
		}
		if caught {
			for _, ob := range sh.pending {
				if now.After(ob.deadline) {
					return fmt.Errorf("%w: manifest epoch %d attests shard %d at seq %d but the caught-up stream ends at seq %d: shard rolled back",
						audit.ErrBadCounter, ob.epoch, k, ob.seq, sh.v.Seq())
				}
			}
		}
	}
	return nil
}

// timeChecks runs the clock-driven continuity rules between frames.
func (m *Mirror) timeChecks() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.connected {
		return nil
	}
	return m.continuityLocked(time.Now())
}

// maybeCheckpoint persists the sidecar if state changed and the cadence
// allows.
func (m *Mirror) maybeCheckpoint() {
	if m.cfg.CheckpointPath == "" {
		return
	}
	m.mu.Lock()
	due := m.dirty && time.Since(m.lastSave) >= m.cfg.checkpointEvery()
	if due {
		m.dirty = false
		m.lastSave = time.Now()
	}
	m.mu.Unlock()
	if due {
		m.saveCheckpoint()
	}
}

// saveCheckpoint persists the mirror sidecar (best effort: a lost
// checkpoint only costs re-verification).
func (m *Mirror) saveCheckpoint() {
	if m.cfg.CheckpointPath == "" {
		return
	}
	m.mu.Lock()
	st := &state{Version: mirrorCheckpointVersion, Name: m.cfg.Name,
		Shards: make([]*audit.Checkpoint, len(m.shards)), MaxCounter: make([]uint64, len(m.shards))}
	for k, sh := range m.shards {
		st.Shards[k] = sh.ckpt
		st.MaxCounter[k] = sh.maxCounter
	}
	if m.mem.seeded {
		st.Manifest = &manifestState{Offset: m.mem.offset, RecOff: m.mem.recOff, RecHash: m.mem.recHash,
			Epoch: m.mem.epoch, Counter: m.mem.counter, Count: m.mem.count}
	}
	m.mu.Unlock()
	st.save(m.cfg.CheckpointPath)
}
