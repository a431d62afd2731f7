package mirror

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"libseal/internal/audit"
	"libseal/internal/telemetry"
)

var (
	mFeedSubscribers = telemetry.NewGauge("audit.feed.subscribers", "subs")
	mFeedSentBytes   = telemetry.NewCounter("audit.feed.sent.bytes", "bytes")
	mFeedRestarts    = telemetry.NewCounter("audit.feed.restarts", "frames")
	mFeedDropped     = telemetry.NewCounter("audit.feed.dropped", "subs")
)

const (
	defaultChunkBytes   = 256 << 10
	defaultQueueFrames  = 64
	defaultWriteTimeout = 5 * time.Second
	defaultPollInterval = 250 * time.Millisecond
)

// FeedConfig describes the replication feed a server exposes next to a
// running audit log.
type FeedConfig struct {
	// Log is the live log set the feed tails. It must be running in disk
	// mode with its files on the real filesystem (the feed reads them with
	// plain os I/O — the files are outside-world state already, which is
	// the whole point of the trust model: the feed serves bytes, it proves
	// nothing). The set says where its files are (ShardedLog.Files).
	Log *audit.ShardedLog
	// ChunkBytes bounds one data frame's payload (default 256 KiB).
	ChunkBytes int
	// QueueFrames bounds each subscriber's outbound frame queue (default
	// 64). A subscriber that cannot drain its queue within WriteTimeout is
	// dropped — backpressure never reaches the append path.
	QueueFrames int
	// WriteTimeout bounds each frame write and the enqueue wait for a full
	// queue (default 5s).
	WriteTimeout time.Duration
	// PollInterval is the fallback wakeup cadence when commit
	// notifications are missed (default 250ms).
	PollInterval time.Duration
}

func (c *FeedConfig) chunk() int {
	if c.ChunkBytes <= 0 {
		return defaultChunkBytes
	}
	return min(c.ChunkBytes, maxFrameBytes-2)
}

func (c *FeedConfig) queue() int {
	if c.QueueFrames <= 0 {
		return defaultQueueFrames
	}
	return c.QueueFrames
}

func (c *FeedConfig) writeTimeout() time.Duration {
	if c.WriteTimeout <= 0 {
		return defaultWriteTimeout
	}
	return c.WriteTimeout
}

func (c *FeedConfig) poll() time.Duration {
	if c.PollInterval <= 0 {
		return defaultPollInterval
	}
	return c.PollInterval
}

// Feed streams a live log set to subscribers. One Feed serves any number of
// concurrent subscribers, each with its own position, queue and
// backpressure; a slow or dead subscriber is dropped without affecting the
// others or the appenders.
type Feed struct {
	cfg FeedConfig

	mu     sync.Mutex
	ln     net.Listener
	subs   map[*subscriber]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewFeed builds a feed over a running log set and installs itself as the
// set's commit listener (displacing any previous listener).
func NewFeed(cfg FeedConfig) (*Feed, error) {
	if cfg.Log == nil || len(cfg.Log.Files()) == 0 {
		return nil, errors.New("mirror: FeedConfig.Log must be a disk-mode log set (WithAuditDisk)")
	}
	f := &Feed{cfg: cfg, subs: make(map[*subscriber]struct{})}
	cfg.Log.SetCommitNotify(f.Notify)
	return f, nil
}

// Notify wakes every subscriber's pump. It is installed as the log set's
// commit notifier and so runs on the committing goroutine: it must never
// block, hence the coalescing non-blocking sends.
func (f *Feed) Notify() {
	f.mu.Lock()
	for s := range f.subs {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	f.mu.Unlock()
}

// Serve accepts subscribers on ln until the listener is closed (by Close or
// externally). It blocks; run it in a goroutine.
func (f *Feed) Serve(ln net.Listener) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		ln.Close()
		return errors.New("mirror: feed closed")
	}
	f.ln = ln
	f.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			f.mu.Lock()
			closed := f.closed
			f.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		f.addSubscriber(conn)
	}
}

func (f *Feed) addSubscriber(conn net.Conn) {
	s := &subscriber{
		feed:   f,
		conn:   conn,
		wake:   make(chan struct{}, 1),
		frames: make(chan frame, f.cfg.queue()),
		done:   make(chan struct{}),
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		conn.Close()
		return
	}
	f.subs[s] = struct{}{}
	n := len(f.subs)
	f.wg.Add(2)
	f.mu.Unlock()
	mFeedSubscribers.Set(int64(n))
	go s.writeLoop()
	go s.pumpLoop()
}

func (f *Feed) removeSubscriber(s *subscriber) {
	f.mu.Lock()
	_, present := f.subs[s]
	delete(f.subs, s)
	n := len(f.subs)
	f.mu.Unlock()
	if present {
		mFeedSubscribers.Set(int64(n))
	}
}

// DisconnectAll severs every current subscriber connection without closing
// the listener — the chaos suite's link-drop fault. Subscribers reconnect
// and resume.
func (f *Feed) DisconnectAll() {
	f.mu.Lock()
	for s := range f.subs {
		s.conn.Close()
	}
	f.mu.Unlock()
}

// Close shuts the feed down: listener, every subscriber, and the commit
// notifier hook.
func (f *Feed) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	ln := f.ln
	for s := range f.subs {
		s.conn.Close()
	}
	f.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	f.cfg.Log.SetCommitNotify(nil)
	f.wg.Wait()
	return nil
}

// frame is one queued outbound frame.
type frame struct {
	typ     byte
	payload []byte
}

// subscriber is one attached mirror: a pump goroutine that reads committed
// log bytes and enqueues frames, and a write goroutine that drains the
// queue to the socket under a deadline.
type subscriber struct {
	feed   *Feed
	conn   net.Conn
	wake   chan struct{}
	frames chan frame
	done   chan struct{} // closed by writeLoop on exit

	// pump state: one lane per persisted file, in ShardedLog.Files order.
	lanes []lane
}

// lane is the subscriber's position in one of the set's files.
type lane struct {
	view audit.FileView
	id   int // shard ordinal, or manifestShard for the sidecar
	pos  int64
	gen  uint64
	file *os.File
}

// newLanes builds a cold lane per persisted file of the set: its shards, then
// the manifest sidecar.
func newLanes(log *audit.ShardedLog) []lane {
	views := log.Files()
	lanes := make([]lane, len(views))
	for i, v := range views {
		lanes[i] = lane{view: v, id: i}
	}
	lanes[len(views)-1].id = manifestShard
	return lanes
}

// open returns the lane's read handle, opening the file on first use.
func (ln *lane) open() (*os.File, error) {
	if ln.file == nil {
		f, err := os.Open(ln.view.Path())
		if err != nil {
			return nil, err
		}
		ln.file = f
	}
	return ln.file, nil
}

func (ln *lane) close() {
	if ln.file != nil {
		ln.file.Close()
		ln.file = nil
	}
}

// proof serves a resume claim: the raw payload of the record whose header
// sits at recOff and which ends at offset, a signature record in a shard
// file and a manifest record in the sidecar.
func (ln *lane) proof(recOff, offset int64) ([]byte, error) {
	if offset > ln.view.CommittedSize() {
		return nil, errors.New("mirror: resume past committed size")
	}
	f, err := ln.open()
	if err != nil {
		return nil, err
	}
	if ln.id == manifestShard {
		return audit.ManifestRecordProof(f, recOff, offset)
	}
	return audit.SigProof(f, recOff, offset)
}

// send enqueues a frame, bounded by the queue and the write timeout: if the
// writer cannot drain the queue in time the subscriber is dropped.
func (s *subscriber) send(typ byte, payload []byte) error {
	t := time.NewTimer(s.feed.cfg.writeTimeout())
	defer t.Stop()
	select {
	case s.frames <- frame{typ, payload}:
		return nil
	case <-s.done:
		return errors.New("mirror: subscriber writer gone")
	case <-t.C:
		mFeedDropped.Inc()
		return errors.New("mirror: subscriber queue stalled")
	}
}

func (s *subscriber) writeLoop() {
	defer s.feed.wg.Done()
	failed := false
	for fr := range s.frames {
		if failed {
			continue // draining: pump will notice done and close the channel
		}
		s.conn.SetWriteDeadline(time.Now().Add(s.feed.cfg.writeTimeout()))
		if err := writeFrame(s.conn, fr.typ, fr.payload); err != nil {
			s.conn.Close()
			// Signal the pump BEFORE draining, or it would keep enqueuing
			// happily forever against a dead socket.
			close(s.done)
			failed = true
			continue
		}
		mFeedSentBytes.Add(int64(5 + len(fr.payload)))
	}
	if !failed {
		close(s.done)
	}
}

func (s *subscriber) pumpLoop() {
	defer s.feed.wg.Done()
	defer s.conn.Close()
	defer s.feed.removeSubscriber(s)
	defer func() {
		close(s.frames)
		for i := range s.lanes {
			s.lanes[i].close()
		}
	}()
	if err := s.handshake(); err != nil {
		return
	}
	ticker := time.NewTicker(s.feed.cfg.poll())
	defer ticker.Stop()
	for {
		caught, err := s.pumpOnce()
		if err != nil {
			return
		}
		if !caught {
			continue
		}
		if err := s.sendTail(); err != nil {
			return
		}
		select {
		case <-s.wake:
		case <-ticker.C:
		case <-s.done:
			return
		}
	}
}

// handshake reads the hello, answers resume claims with proofs, and seeds
// the pump positions.
func (s *subscriber) handshake() error {
	s.conn.SetReadDeadline(time.Now().Add(s.feed.cfg.writeTimeout()))
	typ, payload, err := readFrame(s.conn)
	if err != nil || typ != frameHello {
		return fmt.Errorf("mirror: bad hello: %v", err)
	}
	s.conn.SetReadDeadline(time.Time{})
	var hello helloMsg
	if err := unmarshalStrict(payload, &hello); err != nil {
		return err
	}

	log := s.feed.cfg.Log
	s.lanes = newLanes(log)
	ack := ackMsg{Name: log.Name(), ShardsTotal: log.Shards(), Manifested: true}
	for range hello.Shards {
		ack.Shards = append(ack.Shards, shardAck{})
	}
	for i := range s.lanes {
		ln := &s.lanes[i]
		// Snapshot the generation BEFORE serving the proof: if a trim
		// lands between proof and streaming, the pump's generation check
		// catches it and restarts the lane.
		ln.gen = ln.view.Generation()
		var recOff, offset int64
		switch {
		case ln.id == manifestShard:
			if hello.Manifest != nil {
				recOff, offset = hello.Manifest.RecOff, hello.Manifest.Offset
			}
		case ln.id < len(hello.Shards):
			recOff, offset = hello.Shards[ln.id].SigOffset, hello.Shards[ln.id].Offset
		}
		if offset == 0 {
			continue // cold start for this lane
		}
		proof, err := ln.proof(recOff, offset)
		if err != nil || ln.view.Generation() != ln.gen || ln.gen%2 == 1 {
			continue // ack stays !Ok → cold start for this lane
		}
		ln.pos = offset
		if ln.id == manifestShard {
			ack.ManifestOk, ack.ManifestProof = true, proof
		} else {
			ack.Shards[ln.id] = shardAck{Ok: true, Proof: proof}
		}
	}
	return s.send(frameAck, marshalJSONFrame(ack))
}

// pumpOnce advances every lane as far as currently committed. It reports
// whether the subscriber is fully caught up (so the pump can block on the
// next wakeup).
func (s *subscriber) pumpOnce() (caught bool, err error) {
	caught = true
	for i := range s.lanes {
		c, err := s.pumpLane(&s.lanes[i])
		if err != nil {
			return false, err
		}
		caught = caught && c
	}
	return caught, nil
}

// pumpLane streams one file's committed bytes from the subscriber's
// position. The generation seqlock (audit.FileView) brackets every read: if
// a trim rewrite replaced the file, the subscriber gets a restart frame and
// re-streams from zero — the chunk that raced the rewrite is discarded,
// never sent.
func (s *subscriber) pumpLane(ln *lane) (caught bool, err error) {
	g := ln.view.Generation()
	if g%2 == 1 {
		return false, nil // mid-rewrite; retry next round
	}
	if g != ln.gen {
		ln.gen = g
		ln.pos = 0
		ln.close()
		mFeedRestarts.Inc()
		if err := s.send(frameRestart, restartPayload(ln.id)); err != nil {
			return false, err
		}
	}
	target := ln.view.CommittedSize()
	for ln.pos < target {
		f, err := ln.open()
		if err != nil {
			return false, nil // transient: file mid-replace; retry next round
		}
		// Clamp to the bytes actually on disk. Committed size should never
		// exceed the file, but if something truncated the file behind the
		// log's back the feed must keep serving what exists — the
		// subscriber's continuity checks are what turn the shortfall into a
		// rollback verdict, and they need a live session to run.
		if fi, err := f.Stat(); err == nil && fi.Size() < target {
			target = fi.Size()
		}
		if ln.pos >= target {
			break
		}
		n := min(int64(s.feed.cfg.chunk()), target-ln.pos)
		chunk := make([]byte, n)
		if _, err := f.ReadAt(chunk, ln.pos); err != nil {
			if ln.view.Generation() != ln.gen {
				return false, nil // replaced under us; restart next round
			}
			return false, err
		}
		if ln.view.Generation() != ln.gen {
			return false, nil // chunk may span the rewrite; discard it
		}
		if ln.id == manifestShard {
			err = s.send(frameManifest, chunk)
		} else {
			err = s.send(frameData, dataPayload(ln.id, chunk))
		}
		if err != nil {
			return false, err
		}
		ln.pos += n
	}
	return true, nil
}

// sendTail reports the committed sizes the subscriber has now reached.
func (s *subscriber) sendTail() error {
	var t tailMsg
	for i := range s.lanes {
		size := s.lanes[i].view.CommittedSize()
		if s.lanes[i].id == manifestShard {
			t.Manifest = size
		} else {
			t.Shards = append(t.Shards, size)
		}
	}
	return s.send(frameTail, marshalJSONFrame(t))
}
