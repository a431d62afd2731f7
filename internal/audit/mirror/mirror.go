package mirror

import (
	"bufio"
	"context"
	"crypto/ecdsa"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"libseal/internal/audit"
	"libseal/internal/telemetry"
	"libseal/internal/vfs"
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
	mMirrorSaveErrors = telemetry.NewCounter("mirror.checkpoint.errors", "writes")
)

const (
	defaultBackoffMin   = 100 * time.Millisecond
	defaultRestartGrace = 10 * time.Second
	// backoffMax caps the reconnect backoff (raised to BackoffMin if that is
	// larger).
	backoffMax = 5 * time.Second
	// readTimeout bounds how long a live session may go without a single
	// frame before the link is declared dead; the feed heartbeats with tail
	// frames each poll interval.
	readTimeout = 10 * time.Second
	// checkpointEvery is the minimum interval between state file writes.
	checkpointEvery = time.Second
	checkTick       = 100 * time.Millisecond
)

// Config describes a mirror session.
type Config struct {
	// Addr is the server's replication listener (the feed's).
	Addr string
	// Name is the log-set name; it binds manifest digests and the
	// checkpoint sidecar.
	Name string
	// Pub is the enclave's signing public key — the ONLY trust anchor the
	// mirror holds. Required.
	Pub *ecdsa.PublicKey
	// CheckpointPath, when set, persists what the mirror has verified (its
	// audit.LiveSet's snapshot: resume claims and the claims still waiting) so
	// a restarted mirror continues from its verified prefix instead of
	// re-verifying from byte zero, and holds the feed to what it has seen.
	CheckpointPath string
	// OnViolation observes the first (latching) violation. The mirror
	// stops verifying once a violation latches: its attestation is void.
	OnViolation func(error)
	// Dial overrides the transport (tests, in-process links). Default is a
	// TCP dial of Addr.
	Dial func(ctx context.Context) (net.Conn, error)
	// BackoffMin is the first reconnect backoff (default 100ms); each failed
	// dial or handshake doubles it, up to 5s or BackoffMin if that is larger.
	BackoffMin time.Duration
	// MaxLag, when > 0, is the staleness bound in bytes: once the mirror
	// has caught up once, reported lag beyond this raises
	// ErrMirrorLagging.
	MaxLag int64
	// RestartGrace bounds how long a shard stream restarted cold, from the
	// session's start, may run without holding again the last commit point
	// the mirror verified on the shard (default 10s): the feed may never let
	// it catch up with a rolled-back file. A compaction's image is excused,
	// being signed above every counter the mirror verified on the shard.
	RestartGrace time.Duration
}

func (c *Config) backoffMin() time.Duration {
	if c.BackoffMin <= 0 {
		return defaultBackoffMin
	}
	return c.BackoffMin
}

func (c *Config) restartGrace() time.Duration {
	if c.RestartGrace <= 0 {
		return defaultRestartGrace
	}
	return c.RestartGrace
}

// shardState is a shard's stream of the current session or set restart.
type shardState struct {
	v          *audit.IncrementalVerifier
	serverSize int64
}

// Mirror is a follower continuously verifying a live log over its feed.
type Mirror struct {
	cfg    Config
	cancel context.CancelFunc
	done   chan struct{}
	// stopErr is the final state save's, read once done is closed.
	stopErr error

	mu         sync.Mutex
	connected  bool
	sessions   int
	set        *audit.LiveSet // what the mirror verified: the one memory it persists
	shards     []*shardState
	mreader    *audit.IncrementalManifestReader
	lag        int64
	everCaught bool
	violation  error
	dirty      bool
	lastSave   time.Time
}

// Start attaches a mirror to a feed and begins continuous verification in
// the background. The returned Mirror reconnects with capped exponential
// backoff until Stop or a violation latches.
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
	m := &Mirror{cfg: cfg, done: make(chan struct{})}
	if err := m.loadState(); err != nil {
		return nil, err
	}
	ctx, m.cancel = context.WithCancel(ctx)
	go m.run(ctx)
	return m, nil
}

// newSet starts the mirror's memory of a set of n shards.
func (m *Mirror) newSet(n int) {
	m.set = audit.NewLiveSet(m.cfg.Name, audit.VerifyOptions{Pub: m.cfg.Pub}, n, m.cfg.restartGrace())
	m.shards = make([]*shardState, n)
	for k := range m.shards {
		m.shards[k] = &shardState{}
	}
}

// loadState adopts the state file, if there is one. What it remembers are
// claims, not facts: each resume claim is re-proved against the feed's record
// before a stream resumes from it. A file of an older version is not adopted
// and the mirror starts cold; a corrupt one, or one of another set, is an
// error, so that the claims it holds are not dropped silently.
func (m *Mirror) loadState() error {
	if m.cfg.CheckpointPath == "" {
		return nil
	}
	data, err := os.ReadFile(m.cfg.CheckpointPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err == nil {
		err = m.restore(data)
	}
	if err != nil {
		return fmt.Errorf("mirror: state file %s: %w", m.cfg.CheckpointPath, err)
	}
	return nil
}

// restore adopts data, a state file's contents (saveState).
func (m *Mirror) restore(data []byte) error {
	var st audit.LiveState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	m.newSet(len(st.Shards))
	if err := m.set.Restore(&st); errors.Is(err, audit.ErrCheckpointStale) {
		m.set, m.shards = nil, nil
	} else if err != nil {
		return err
	}
	return nil
}

// Stop shuts the mirror down, persisting its state a last time. It returns
// the error of that save once the background loop has exited, or ctx's if ctx
// expires first.
func (m *Mirror) Stop(ctx context.Context) error {
	m.cancel()
	select {
	case <-m.done:
		return m.stopErr
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
		Reconnects: max(0, m.sessions-1), LagBytes: m.lag, Tables: make(map[string]int),
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

// run is the reconnect loop: dial and session, and after a failed dial or
// handshake a backoff that doubles from BackoffMin up to backoffMax.
func (m *Mirror) run(ctx context.Context) {
	defer close(m.done)
	defer func() { m.stopErr = m.saveState() }()
	first := m.cfg.backoffMin()
	backoff := first
	for ctx.Err() == nil && m.Err() == nil {
		if conn, err := m.dial(ctx); err == nil {
			established := m.session(ctx, conn)
			conn.Close()
			m.mu.Lock()
			m.connected = false
			m.mu.Unlock()
			if established {
				backoff = first
				mMirrorReconnects.Inc()
				continue
			}
		}
		if !sleepCtx(ctx, backoff) {
			return
		}
		backoff = min(backoff*2, max(backoffMax, first))
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
			conn.SetReadDeadline(time.Now().Add(readTimeout))
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
	if m.set != nil {
		st := m.set.Snapshot()
		for _, mem := range st.Shards {
			var claim shardResume
			if p := mem.Last; p != nil {
				claim = shardResume{Offset: p.Offset, SigOffset: p.SigOffset, SigHash: hex.EncodeToString(p.SigHash[:])}
			}
			hello.Shards = append(hello.Shards, claim)
		}
		if pos := st.Manifest; pos.Offset > 0 {
			hello.Manifest = &manifestResume{Offset: pos.Offset, RecOff: pos.RecOff, RecHash: pos.RecHash}
		}
	}
	m.mu.Unlock()

	conn.SetWriteDeadline(time.Now().Add(readTimeout))
	if err := writeFrame(conn, frameHello, marshalJSONFrame(hello)); err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Time{})
	conn.SetReadDeadline(time.Now().Add(readTimeout))
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
	if m.set == nil {
		m.newSet(ack.ShardsTotal)
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
// from the head of its file; the set rule (audit.LiveSet) holds each cold
// shard stream to what the mirror verified on the shard. It reports whether
// the ack resumed a lane the mirror starts cold.
func (m *Mirror) restartLocked(ack *ackMsg) (diverged bool) {
	var lanes []shardAck
	var sidecar []byte
	if ack != nil {
		lanes, sidecar = ack.Shards, ack.ManifestProof
		if !ack.ManifestOk {
			sidecar = nil
		}
	}
	m.mreader = m.set.RestartManifests(sidecar)
	diverged = ack != nil && ack.ManifestOk && m.mreader.Offset() == 0
	for k, sh := range m.shards {
		var lane shardAck
		if k < len(lanes) && lanes[k].Ok {
			lane = lanes[k]
		}
		var resumed bool
		sh.v, resumed = m.set.RestartShard(k, lane.Proof)
		diverged = diverged || lane.Ok && !resumed
	}
	m.dirty = true
	return diverged
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
		m.dirty = true
		if err := sh.v.Feed(payload[2:]); err != nil {
			return err
		}
		mMirrorEntries.Add(int64(sh.v.Seq() - seq))
		mMirrorSeq.Set(int64(sh.v.Seq()))
		return nil
	case frameManifest:
		m.dirty = true
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
// accounting, the deadline of the restarted streams' history claims, and once
// the mirror holds every file whole, the set rule's verdict on them.
func (m *Mirror) tailLocked(t tailMsg) error {
	var lag int64
	for k, sh := range m.shards {
		if k < len(t.Shards) {
			sh.serverSize = t.Shards[k]
		}
		if d := sh.serverSize - sh.v.Offset(); d > 0 {
			lag += d
		}
	}
	if d := t.Manifest - (m.mreader.Offset() + int64(m.mreader.Buffered())); d > 0 {
		lag += d
	}
	m.lag = lag
	mMirrorLag.Set(lag)
	if err := m.set.Settle(lag == 0); err != nil {
		return err
	}
	m.everCaught = m.everCaught || lag == 0
	if m.cfg.MaxLag > 0 && m.everCaught && lag > m.cfg.MaxLag {
		return fmt.Errorf("%w: %d bytes behind (bound %d)", ErrMirrorLagging, lag, m.cfg.MaxLag)
	}
	return nil
}

// timeChecks runs the clock-driven rule between frames: a restarted stream's
// history claim that has waited RestartGrace is a rolled-back shard.
func (m *Mirror) timeChecks() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.connected {
		return nil
	}
	return m.set.Settle(false)
}

// maybeCheckpoint persists the state file if state changed and the cadence
// allows.
func (m *Mirror) maybeCheckpoint() {
	if m.cfg.CheckpointPath == "" {
		return
	}
	m.mu.Lock()
	due := m.dirty && time.Since(m.lastSave) >= checkpointEvery
	if due {
		m.dirty = false
		m.lastSave = time.Now()
	}
	m.mu.Unlock()
	if due {
		m.saveState()
	}
}

// saveState persists the set's snapshot to the state file atomically
// (vfs.WriteFileAtomic). A failed save is counted and leaves the state dirty,
// for the next round to retry: once the file holds waiting claims, a save
// lost in silence is a claim forgotten.
func (m *Mirror) saveState() error {
	if m.cfg.CheckpointPath == "" {
		return nil
	}
	m.mu.Lock()
	var st *audit.LiveState
	if m.set != nil {
		st = m.set.Snapshot()
	}
	m.mu.Unlock()
	if st == nil {
		return nil
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err == nil {
		err = vfs.WriteFileAtomic(nil, m.cfg.CheckpointPath, append(data, '\n'), 0o644)
	}
	if err != nil {
		mMirrorSaveErrors.Inc()
		m.mu.Lock()
		m.dirty = true
		m.mu.Unlock()
	}
	return err
}
