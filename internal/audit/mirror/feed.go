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
	chunkBytes   = 256 << 10              // one data frame's payload bound
	pollInterval = 250 * time.Millisecond // wakeup cadence when commit notifications are missed
)

// writeTimeout bounds each frame write to a subscriber and the wait for its
// hello. A subscriber that misses it is dropped: backpressure never reaches
// the append path, which only pokes pumps through Notify. A variable so tests
// can shorten it.
var writeTimeout = 5 * time.Second

// Feed streams a live log set to subscribers. One Feed serves any number of
// concurrent subscribers, each with its own position and backpressure; a
// slow or dead subscriber is dropped without affecting the others or the
// appenders.
type Feed struct {
	log  *audit.ShardedLog
	quit chan struct{} // closed by Close: idle pumps exit

	mu     sync.Mutex
	ln     net.Listener
	subs   map[*subscriber]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewFeed builds a feed over a running log set and installs itself as the
// set's commit listener (displacing any previous listener). The set must be
// running in disk mode with its files on the real filesystem: the feed reads
// them with plain os I/O — the files are outside-world state already, which
// is the whole point of the trust model: the feed serves bytes, it proves
// nothing.
func NewFeed(log *audit.ShardedLog) (*Feed, error) {
	if log == nil || len(log.Files()) == 0 {
		return nil, errors.New("mirror: the feed needs a disk-mode log set (WithAuditDisk)")
	}
	f := &Feed{log: log, quit: make(chan struct{}), subs: make(map[*subscriber]struct{})}
	log.SetCommitNotify(f.Notify)
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
	s := &subscriber{feed: f, conn: conn, wake: make(chan struct{}, 1)}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		conn.Close()
		return
	}
	f.subs[s] = struct{}{}
	n := len(f.subs)
	f.wg.Add(1)
	f.mu.Unlock()
	mFeedSubscribers.Set(int64(n))
	go s.pump()
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
// notifier hook. Closing a subscriber's conn unblocks a pump stalled
// mid-write; an idle pump exits on quit.
func (f *Feed) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	close(f.quit)
	ln := f.ln
	for s := range f.subs {
		s.conn.Close()
	}
	f.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	f.log.SetCommitNotify(nil)
	f.wg.Wait()
	return nil
}

// subscriber is one attached mirror, served by one pump goroutine that
// reads committed log bytes and writes them to the socket as frames.
type subscriber struct {
	feed *Feed
	conn net.Conn
	wake chan struct{}

	// pump state: one lane per persisted file, in ShardedLog.Files order, and
	// the set generation (ShardedLog.Generation) the lanes' positions are in.
	lanes []lane
	gen   uint64
}

// lane is the subscriber's position in one of the set's files.
type lane struct {
	view     audit.FileView
	manifest bool // the sidecar; else the shard of the lane's index
	pos      int64
	file     *os.File
}

// newLanes builds a cold lane per persisted file of the set: its shards, then
// the manifest sidecar.
func newLanes(log *audit.ShardedLog) []lane {
	views := log.Files()
	lanes := make([]lane, len(views))
	for i, v := range views {
		lanes[i] = lane{view: v, manifest: i == len(views)-1}
	}
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
	if ln.manifest {
		return audit.ManifestRecordProof(f, recOff, offset)
	}
	return audit.SigProof(f, recOff, offset)
}

// send writes one frame under the write deadline. A subscriber that misses
// it is not draining its socket and is dropped.
func (s *subscriber) send(typ byte, payload []byte) error {
	s.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := writeFrame(s.conn, typ, payload); err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			mFeedDropped.Inc()
		}
		return err
	}
	mFeedSentBytes.Add(int64(5 + len(payload)))
	return nil
}

// pump serves the subscriber: the handshake, then a round of pumpOnce per
// commit notification or poll, until a write fails or the feed closes.
func (s *subscriber) pump() {
	defer s.feed.wg.Done()
	defer s.conn.Close()
	defer s.feed.removeSubscriber(s)
	defer func() {
		for i := range s.lanes {
			s.lanes[i].close()
		}
	}()
	if err := s.handshake(); err != nil {
		return
	}
	ticker := time.NewTicker(pollInterval)
	defer ticker.Stop()
	for {
		caught, err := s.pumpOnce()
		if caught {
			err = s.sendTail()
		} else if err == nil && s.feed.log.Generation()%2 == 0 {
			continue // a read raced a land that has settled: restart now
		}
		if err != nil {
			return
		}
		select {
		case <-s.wake:
		case <-ticker.C:
		case <-s.feed.quit:
			return
		}
	}
}

// handshake reads the hello, answers resume claims with proofs, and seeds
// the pump positions.
func (s *subscriber) handshake() error {
	s.conn.SetReadDeadline(time.Now().Add(writeTimeout))
	typ, payload, err := readFrame(s.conn)
	if err != nil || typ != frameHello {
		return fmt.Errorf("mirror: bad hello: %v", err)
	}
	s.conn.SetReadDeadline(time.Time{})
	var hello helloMsg
	if err := unmarshalStrict(payload, &hello); err != nil {
		return err
	}

	log := s.feed.log
	s.lanes = newLanes(log)
	ack := ackMsg{Name: log.Name(), ShardsTotal: log.Shards(), Manifested: true}
	for range hello.Shards {
		ack.Shards = append(ack.Shards, shardAck{})
	}
	// The proofs are served in the set generation before any land in flight
	// (a land that fails before its first rename restores it): one that
	// replaces the files is the first pump round's set restart.
	s.gen = log.Generation() &^ 1
	for i := range s.lanes {
		ln := &s.lanes[i]
		var recOff, offset int64
		switch {
		case ln.manifest:
			if hello.Manifest != nil {
				recOff, offset = hello.Manifest.RecOff, hello.Manifest.Offset
			}
		case i < len(hello.Shards):
			recOff, offset = hello.Shards[i].SigOffset, hello.Shards[i].Offset
		}
		if offset == 0 {
			continue // cold start for this lane
		}
		proof, err := ln.proof(recOff, offset)
		if err != nil {
			continue // ack stays !Ok → cold start for this lane
		}
		ln.pos = offset
		if ln.manifest {
			ack.ManifestOk, ack.ManifestProof = true, proof
		} else {
			ack.Shards[i] = shardAck{Ok: true, Proof: proof}
		}
	}
	return s.send(frameAck, marshalJSONFrame(ack))
}

// pumpOnce advances every lane as far as currently committed, the set
// generation bracketing every read: if a compaction replaced the set's files,
// the subscriber gets one set-restart frame and then every lane from zero —
// a chunk that raced the land is discarded, never sent. It reports whether
// the subscriber is fully caught up (so the pump can block on the next
// wakeup).
func (s *subscriber) pumpOnce() (caught bool, err error) {
	g := s.feed.log.Generation()
	if g%2 == 1 {
		return false, nil // a land in flight: wait for it to settle
	}
	if g != s.gen {
		s.gen = g
		for i := range s.lanes {
			s.lanes[i].pos = 0
			s.lanes[i].close()
		}
		mFeedRestarts.Inc()
		if err := s.send(frameSetRestart, nil); err != nil {
			return false, err
		}
	}
	for i := range s.lanes {
		if c, err := s.pumpLane(i, &s.lanes[i]); err != nil || !c {
			return false, err
		}
	}
	return true, nil
}

// pumpLane streams one file's committed bytes from the subscriber's position,
// in set generation s.gen.
func (s *subscriber) pumpLane(k int, ln *lane) (caught bool, err error) {
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
		n := min(chunkBytes, target-ln.pos)
		chunk := make([]byte, n)
		_, err = f.ReadAt(chunk, ln.pos)
		if s.feed.log.Generation() != s.gen {
			return false, nil // the chunk may span a land; restart next round
		}
		if err != nil {
			return false, err
		}
		if ln.manifest {
			err = s.send(frameManifest, chunk)
		} else {
			err = s.send(frameData, dataPayload(k, chunk))
		}
		if err != nil {
			return false, err
		}
		ln.pos += n
	}
	return true, nil
}

// sendTail reports the committed sizes the subscriber has now reached, unless
// a land changed the files since they were streamed.
func (s *subscriber) sendTail() error {
	var t tailMsg
	for _, ln := range s.lanes {
		if ln.manifest {
			t.Manifest = ln.view.CommittedSize()
		} else {
			t.Shards = append(t.Shards, ln.view.CommittedSize())
		}
	}
	if s.feed.log.Generation() != s.gen {
		return nil
	}
	return s.send(frameTail, marshalJSONFrame(t))
}
