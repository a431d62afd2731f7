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
	// RestartGrace bounds how long a restarted shard stream may run without
	// regaining the highest counter the mirror verified on the shard (default
	// 10s): an honest compaction re-signs at fresh counters in its first
	// commit point, so a stream that stays below the floor is serving a
	// rolled-back file the feed may never let it catch up with.
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

	// The stream of this session or set restart (m.set's shard stream).
	v          *audit.IncrementalVerifier
	serverSize int64
	sized      bool
	resumed    bool
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
	set         *audit.LiveSet
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
		sh := &shardState{ckpt: st.Shards[k]}
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
		r.Resumed = r.Resumed || sh.resumed
	}
	if m.set != nil {
		m.set.Report(r)
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
	m.mu.Unlock()

	// The reader hands on every frame the link delivered, then its error.
	type recvFrame struct {
		typ     byte
		payload []byte
		err     error
	}
	frames := make(chan recvFrame, 16)
	sessDone := make(chan struct{})
	defer close(sessDone)
	go func() {
		for {
			conn.SetReadDeadline(time.Now().Add(m.cfg.readTimeout()))
			typ, payload, err := readFrame(br)
			select {
			case frames <- recvFrame{typ, payload, err}:
			case <-sessDone:
				return
			}
			if err != nil {
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
		case fr := <-frames:
			if fr.err != nil {
				return true // link error; reconnect
			}
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
			m.shards[k] = &shardState{}
		}
	} else if len(m.shards) != ack.ShardsTotal {
		// A shard-count change under a mirror with verified state cannot be
		// distinguished from serving a different log set; refuse to adapt.
		m.mu.Unlock()
		m.violate(fmt.Errorf("%w: feed reports %d shards, mirror verified %d", audit.ErrTampered, ack.ShardsTotal, len(m.shards)))
		m.mu.Lock()
		return m.violation
	}
	if m.restartLocked(&ack) {
		// The feed streams such a lane from the claimed offset, the mirror
		// from zero: reconnect with no claim on it.
		return errors.New("mirror: the feed resumed a lane whose proof the mirror refused")
	}
	return nil
}

// restartLocked starts the streams of a new session, resuming each lane the
// ack proves the mirror's claim on, or of a set restart (ack nil), every lane
// from the head of its file. The set rule (audit.LiveSet) holds each cold
// shard stream to what the mirror verified on the shard, unless the sidecar's
// stream restarted with it and the stream is a later incarnation of the file;
// a cold shard stream must also regain the shard's counter floor within
// RestartGrace (continuityLocked). It reports whether the ack resumed a lane
// the mirror starts cold.
func (m *Mirror) restartLocked(ack *ackMsg) (diverged bool) {
	if m.set == nil {
		m.set = audit.NewLiveSet(m.cfg.Name, audit.VerifyOptions{Pub: m.cfg.Pub, Unseal: m.cfg.Unseal}, len(m.shards))
		m.set.OnManifest = m.onManifest
	}
	m.mreader = m.set.RestartManifests(m.mem.seeded, m.mem.epoch, m.mem.counter)
	sidecar := ack != nil && m.mem.offset > 0 && ack.ManifestOk && audit.MatchManifestProof(ack.ManifestProof, m.cfg.Name, m.cfg.Pub,
		m.mem.offset, m.mem.recOff, m.mem.recHash, m.mem.epoch, m.mem.counter) == nil
	if sidecar {
		m.mreader.ResumeAt(m.mem.offset, m.mem.recOff, m.mem.recHash)
	} else {
		diverged = ack != nil && ack.ManifestOk
		m.mem.offset, m.mem.recOff, m.mem.recHash = 0, 0, ""
	}
	now := time.Now()
	for k, sh := range m.shards {
		proved := ack != nil && sh.ckpt != nil && k < len(ack.Shards) && ack.Shards[k].Ok &&
			sh.ckpt.MatchProof(ack.Shards[k].Proof, m.cfg.Pub) == nil
		hadState := sh.v != nil || sh.ckpt != nil || sh.maxCounter > 0
		sh.v, sh.resumed = m.set.RestartShard(k, sh.ckpt, proved, !sidecar, sh.maxCounter)
		sh.sized = false
		if sh.resumed {
			continue
		}
		sh.ckpt = nil // the set rule holds the stream to it
		diverged = diverged || ack != nil && k < len(ack.Shards) && ack.Shards[k].Ok
		if sh.maxCounter > 0 && sh.needCounter == 0 {
			sh.needCounter, sh.needSince = sh.maxCounter, now
		}
		if hadState {
			m.restarts++
		}
	}
	m.dirty = true
	return diverged
}

// onManifest books a manifest the set rule accepted. Caller holds m.mu.
func (m *Mirror) onManifest(man *audit.Manifest) {
	m.mem.epoch, m.mem.counter = man.Epoch, man.Counter
	m.mem.count++
	m.mem.offset = m.mreader.Offset()
	m.mem.recOff, m.mem.recHash = m.mreader.LastRecord()
	m.mem.seeded = true
	m.dirty = true
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
		seq := sh.v.Seq()
		if err := sh.v.Feed(payload[2:]); err != nil {
			return err
		}
		// The frame's commits were reported after one ECDSA check, on its
		// last signature record; that commit point is the checkpointable one.
		if sh.ckpt == nil || sh.ckpt.Batches != sh.v.Batches() {
			sh.ckpt = sh.v.Checkpoint(k)
			m.dirty = true
		}
		sh.maxCounter = max(sh.maxCounter, sh.v.MaxCounter())
		if sh.needCounter > 0 && sh.v.MaxCounter() >= sh.needCounter {
			sh.needCounter = 0
		}
		mMirrorEntries.Add(int64(sh.v.Seq() - seq))
		mMirrorSeq.Set(int64(sh.v.Seq()))
		return nil
	case frameManifest:
		return m.mreader.Feed(payload)
	case frameSetRestart:
		if len(payload) != 0 {
			return errors.New("mirror: malformed set-restart frame")
		}
		m.restartLocked(nil)
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
// accounting, and once the mirror holds every file whole, the set rule's
// verdict on them and the caught-up continuity checks.
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
		if err := m.set.Settle(); err != nil {
			return err
		}
		m.everCaught = true
	}
	if m.cfg.MaxLag > 0 && m.everCaught && lag > m.cfg.MaxLag {
		return fmt.Errorf("%w: %d bytes behind (bound %d)", ErrMirrorLagging, lag, m.cfg.MaxLag)
	}
	return m.continuityLocked(time.Now())
}

// continuityLocked applies the continuity floor: a restarted shard stream
// that has caught up to the server's committed size — or been streaming for
// the whole restart grace — without regaining the highest counter the mirror
// verified on the shard is serving a rolled-back file.
func (m *Mirror) continuityLocked(now time.Time) error {
	for k, sh := range m.shards {
		if sh.needCounter == 0 {
			continue
		}
		since := sh.needSince
		if m.established.After(since) {
			since = m.established
		}
		if caught := sh.sized && sh.v.Offset() >= sh.serverSize; caught || now.Sub(since) > m.cfg.restartGrace() {
			return fmt.Errorf("%w: shard %d stream restarted but never re-attained verified counter %d (last %d): shard rolled back",
				audit.ErrBadCounter, k, sh.needCounter, sh.v.MaxCounter())
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
