package audit

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"libseal/internal/enclave"
)

// The verifier. What makes a log the one the enclave wrote is a rule about
// records: every entry unseals, decodes, carries the next sequence number and
// extends the hash chain; every signature record attests exactly the chain
// head reached so far under the enclave's key. That rule is written once, in
// chainVerifier. Around it sit a ledger (what has been committed: the last
// signature record and the running totals a result or a checkpoint reports),
// a merger (folds verified segments into the ledger in stream order and gives
// the end-of-stream verdict) and three drivers that differ only in how bytes
// arrive and who schedules the work: VerifyReaderResult on the caller's
// goroutine, VerifyReaderStream's worker pool (parverify.go) and the
// chunk-fed IncrementalVerifier (incremental.go). DESIGN.md §13 has the table.

// VerifyOptions controls persisted-log verification.
type VerifyOptions struct {
	// Pub is the enclave's signing public key (bound to the enclave by an
	// attestation quote).
	Pub *ecdsa.PublicKey
	// Protector, when set, checks counter freshness against the group.
	Protector RollbackProtector
	// Name is the counter name (Config.Name).
	Name string
	// Unseal decrypts sealed entries; required when the log was written
	// with Config.Seal. It runs inside an enclave in production.
	Unseal func(blob []byte) ([]byte, error)
	// RecoverTruncated tolerates a torn tail: records after the last
	// intact, signature-covered prefix are discarded instead of failing
	// verification — they were never acknowledged as durable. Crash
	// recovery sets this; client-side evidence verification keeps it
	// false so any truncation shows up as tampering.
	RecoverTruncated bool
	// MaxCounterLag accepts a persisted counter up to this far behind the
	// group's stable value — the state left by a crash between a counter
	// increment and the matching signature flush. Recovery passes a small
	// bound and immediately re-anchors; clients keep the strict zero.
	MaxCounterLag uint64
}

// VerifyResult is the outcome of a successful verification.
type VerifyResult struct {
	// Entries are the verified tuples, in file order.
	Entries []*Entry
	// Counter is the rollback-counter value of the verified signature.
	Counter uint64
	// CommittedBytes is the length of the verified file prefix. With
	// RecoverTruncated, bytes past it are crash debris and can be cut off.
	CommittedBytes int64
	// Batches is the number of signature records (commit points) in the
	// verified prefix: group commit anchors several chained entries per
	// signature, so Batches <= len(Entries) once batching is on.
	Batches int
	// MaxBatch is the largest number of entries covered by one signature
	// record.
	MaxBatch int
}

// parseSig decodes a signature record.
func parseSig(payload []byte) (chain [32]byte, counter uint64, sig enclave.Signature, err error) {
	r := bytes.NewReader(payload)
	if _, err = io.ReadFull(r, chain[:]); err != nil {
		err = ErrTampered
		return
	}
	var c [8]byte
	if _, err = io.ReadFull(r, c[:]); err != nil {
		err = ErrTampered
		return
	}
	counter = binary.BigEndian.Uint64(c[:])
	rb, err := readString(r)
	if err != nil {
		return
	}
	sb, err := readString(r)
	if err != nil {
		return
	}
	sig = enclave.Signature{R: []byte(rb), S: []byte(sb)}
	if r.Len() != 0 {
		// The ECDSA signature covers only the chain head and counter, so
		// trailing payload bytes would let an inflated length field swallow
		// neighbouring records without invalidating the record.
		err = errors.New("trailing bytes after signature")
	}
	return
}

// chainVerifier is the record-level core: the position in the chain and the
// two checks that advance it. It is strict — the first error is final — and
// knows nothing of framing, commit points or verdicts; a driver seeds it at
// any verified (or, for a parallel segment, claimed) position.
type chainVerifier struct {
	opts  *VerifyOptions // Pub and Unseal; the rest is the verdict's business
	seq   uint64         // sequence number the next entry must carry
	chain [32]byte       // chain head over every entry accepted so far
	sigs  int            // ordinal of the next signature record, naming it in errors
}

// entry checks one entry record's payload and extends the chain over it.
func (v *chainVerifier) entry(raw []byte) (*Entry, error) {
	if v.opts.Unseal != nil {
		var err error
		if raw, err = v.opts.Unseal(raw); err != nil {
			return nil, fmt.Errorf("%w: unseal: %v", ErrTampered, err)
		}
	}
	e, err := UnmarshalEntry(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	if e.Seq != v.seq {
		return nil, fmt.Errorf("%w: sequence gap at %d", ErrTampered, v.seq)
	}
	v.seq++
	v.chain = chainNext(v.chain, raw)
	return e, nil
}

// sig checks one signature record's payload against the chain head reached
// and returns the counter it binds. Every signature record is checked, not
// just the last: a log with a forged intermediate signature is not the log
// the enclave wrote even when its entries still chain. Counters may
// legitimately regress between records (a recovery that re-anchored on a
// rebuilt counter group), so rollback is judged against the live group by
// the verdict, never record to record.
func (v *chainVerifier) sig(payload []byte) (uint64, error) {
	chain, counter, sig, err := parseSig(payload)
	bad := ""
	switch {
	case err != nil:
		bad = err.Error()
	case chain != v.chain:
		bad = "chain hash mismatch"
	case v.opts.Pub != nil && !enclave.VerifySignature(v.opts.Pub, sigDigest(chain, counter), sig):
		bad = "signature invalid"
	}
	if bad != "" {
		return 0, fmt.Errorf("%w: signature record %d: %s", ErrTampered, v.sigs, bad)
	}
	v.sigs++
	return counter, nil
}

// commitPoint is the verified state as of one signature record.
type commitPoint struct {
	end     int64    // stream offset just past the record
	chain   [32]byte // chain head it attests
	counter uint64   // rollback-counter value it binds
	sigOff  int64    // offset of the record's header
	sigRaw  []byte   // its payload; with sigOff, what binds a checkpoint to one file
	sigHash string   // hex SHA-256 of sigRaw, computed when first asked for
}

// totals is the running state of a verified prefix: its last commit point
// and the counts a Checkpoint and a StreamResult carry.
type totals struct {
	commitPoint
	seq                        uint64 // entries under the commit point = the next entry's sequence number
	entries, batches, maxBatch int
}

// ledger is the commit bookkeeping every driver keeps.
type ledger struct {
	base    totals         // where this scan started: the empty log, or a checkpoint's state
	resumed bool           // base came from a checkpoint
	cur     totals         // base plus everything committed since
	scanMax int            // largest batch this scan committed
	tables  map[string]int // per-table entry counts over the whole log
	pending int            // entries verified past the last commit point
}

// newLedger starts from checkpoint c, or from the empty log when c is nil
// (which cannot fail).
func newLedger(c *Checkpoint) (ledger, error) {
	l := ledger{tables: map[string]int{}}
	l.base.end = int64(len(fileMagic))
	if c != nil {
		chain, err := c.chainHead()
		if err != nil {
			return l, err
		}
		l.resumed = true
		l.base = totals{
			commitPoint: commitPoint{end: c.Offset, chain: chain, counter: c.Counter, sigOff: c.SigOffset, sigHash: c.SigHash},
			seq:         c.Seq, entries: c.Entries, batches: c.Batches, maxBatch: c.MaxBatch,
		}
		for t, n := range c.Tables {
			l.tables[t] = n
		}
	}
	l.cur = l.base
	return l, nil
}

// entry counts one verified entry into the open batch.
func (l *ledger) entry(e *Entry) {
	l.tables[e.Table]++
	l.pending++
}

// commit closes the open batch at a verified signature record.
func (l *ledger) commit(cp commitPoint) {
	l.cur.commitPoint = cp
	l.cur.seq += uint64(l.pending)
	l.cur.entries += l.pending
	l.cur.batches++
	l.cur.maxBatch = max(l.cur.maxBatch, l.pending)
	l.scanMax = max(l.scanMax, l.pending)
	l.pending = 0
}

// sigHash is the hex digest of the last commit point's signature record, ""
// before the first one.
func (l *ledger) sigHash() string {
	if l.cur.sigHash == "" && l.cur.sigRaw != nil {
		l.cur.sigHash = hexDigest(l.cur.sigRaw)
	}
	return l.cur.sigHash
}

// checkpoint snapshots the last commit point as resumable sidecar state. The
// signature record's offset and payload hash bind it to this exact file;
// resume refuses a log that was trimmed or swapped underneath it.
func (l *ledger) checkpoint(shard int) *Checkpoint {
	tables := make(map[string]int, len(l.tables))
	for t, n := range l.tables {
		tables[t] = n
	}
	t := &l.cur
	return &Checkpoint{
		Version: checkpointVersion, Shard: shard,
		Offset: t.end, Seq: t.seq, Chain: hexChain(t.chain), Counter: t.counter,
		Batches: t.batches, MaxBatch: t.maxBatch, Entries: t.entries, Tables: tables,
		SigOffset: t.sigOff, SigHash: l.sigHash(),
	}
}

// result reports the committed prefix: what this scan verified in the
// embedded VerifyResult, the checkpointed prefix folded in in the totals.
func (l *ledger) result(entries []*Entry) *StreamResult {
	scanned := l.cur.batches - l.base.batches
	return &StreamResult{
		VerifyResult: VerifyResult{
			Entries: entries, Counter: l.cur.counter, CommittedBytes: l.cur.end,
			Batches: scanned, MaxBatch: l.scanMax,
		},
		TotalEntries: l.cur.entries, TotalBatches: l.cur.batches, TotalMaxBatch: l.cur.maxBatch,
		Tables: l.tables, Resumed: l.resumed,
	}
}

// merger folds verified segments into the ledger in stream order for the two
// segment drivers, latches the first failure and gives the final verdict.
type merger struct {
	opts *StreamOptions
	led  ledger

	entries []*Entry // accumulated only when OnSegment is nil

	failed     error // first failure, in stream order
	failedSigs int   // signature records up to and including the failing record
	cbErr      error // OnSegment asked to abort; not a verdict

	ckptSegs  int
	ckptBytes int64
}

// consume merges one segment's verdict; it returns false when merging must
// stop (a verification failure or a callback abort).
func (m *merger) consume(seg *segment) bool {
	r := &seg.res
	if r.err != nil {
		// Signature records before the failure are the closers of segments
		// 0..index-1, plus this segment's own when that is what failed.
		m.failed, m.failedSigs = r.err, seg.index
		if r.atSig {
			m.failedSigs++
		}
		return false
	}
	if !seg.hasSig {
		// Entries past the last signature record: verified but uncommitted.
		// Only the last segment of a stream can be unsigned.
		m.led.pending = len(r.entries)
		return true
	}
	mVerifySegments.Inc()
	mVerifyEntries.Add(int64(len(r.entries)))
	mVerifyBytes.Add(r.bytes)
	for _, e := range r.entries {
		m.led.entry(e)
	}
	m.led.commit(commitPoint{end: seg.end, chain: r.chain, counter: r.counter, sigOff: seg.sigOff, sigRaw: seg.sigRaw})
	if m.opts.OnSegment == nil {
		m.entries = append(m.entries, r.entries...)
	} else if err := m.opts.OnSegment(SegmentInfo{
		Shard: m.opts.Shard, Index: seg.index, Entries: r.entries,
		Counter: r.counter, EndSeq: m.led.cur.seq, Chain: r.chain, CommittedBytes: seg.end,
	}); err != nil {
		m.cbErr = err
		return false
	}
	r.entries = nil // release; the window has moved past this segment
	if cfg := m.opts.Checkpoint; cfg != nil {
		m.ckptSegs++
		m.ckptBytes += r.bytes
		every, everyBytes := cfg.EverySegments, cfg.EveryBytes
		if every <= 0 {
			every = defaultCheckpointSegments
		}
		if everyBytes <= 0 {
			everyBytes = defaultCheckpointBytes
		}
		if m.ckptSegs >= every || m.ckptBytes >= everyBytes {
			m.ckptSegs, m.ckptBytes = 0, 0
			if err := m.led.checkpoint(m.opts.Shard).Save(cfg.Path); err == nil {
				mVerifyCheckpoints.Inc()
			} else if cfg.OnError != nil {
				cfg.OnError(err)
			}
		}
	}
	return true
}

// finish is the end-of-stream verdict, in order of precedence: bad magic, and
// in strict mode any framing error, preempt everything (a stream that does
// not parse is judged before anything in it); then the first failure in
// stream order; then an unknown record type; then entries left unsigned at
// the end; then counter freshness. Tolerant mode forgives framing errors and
// a failure as crash debris, but only when no signature record follows the
// failure: one that does proves the damage sits inside the committed prefix.
func (m *merger) finish(end scanEnd) (*StreamResult, error) {
	opts := &m.opts.VerifyOptions
	strict := !opts.RecoverTruncated
	switch {
	case end.badMagic, strict && end.streamErr != nil:
		return nil, end.streamErr
	case m.failed != nil && strict:
		return nil, m.failed
	case m.failed != nil && end.totalSigs > m.failedSigs:
		return nil, fmt.Errorf("%w: corrupted entry inside signed prefix", ErrTampered)
	case m.failed == nil && end.unknownErr != nil:
		return nil, end.unknownErr
	case strict && m.led.pending > 0 && m.led.cur.batches == 0:
		return nil, fmt.Errorf("%w: missing signature record", ErrTampered)
	case strict && m.led.pending > 0:
		// Strict verification demands the file end at a signed prefix.
		return nil, fmt.Errorf("%w: %d entries after the last signature record", ErrTampered, m.led.pending)
	}
	// Freshness applies to every accepted outcome, the empty log included:
	// "no batches" under a group counter that has moved is a rollback.
	if err := checkFreshness(m.led.cur.counter, *opts); err != nil {
		return nil, err
	}
	return m.led.result(m.entries), nil
}

// VerifyReaderResult verifies a persisted log on the caller's goroutine —
// scanner, core and merger in one loop, no worker pool — and returns the
// verified entries with the counter and committed prefix length. It runs
// outside the enclave for clients (verification needs no secrets, which is
// what lets them audit the provider) and inside an enclave call for Recover,
// whose Unseal is bound to that call.
func VerifyReaderResult(r io.Reader, opts VerifyOptions) (*VerifyResult, error) {
	led, _ := newLedger(nil) // from the empty log: cannot fail
	m := merger{opts: &StreamOptions{VerifyOptions: opts}, led: led}
	// Nothing runs concurrently, so there is nothing for a context to stop.
	end := scanSegments(context.Background(), r, &m.led.base, false, func(seg *segment) bool {
		if m.failed == nil {
			seg.res = verifySegment(seg, &opts, 0)
			m.consume(seg)
		}
		return true
	})
	res, err := m.finish(end)
	if err != nil {
		return nil, err
	}
	return &res.VerifyResult, nil
}

// checkFreshness compares the log's committed counter against the rollback
// group's stable value.
func checkFreshness(counter uint64, opts VerifyOptions) error {
	if opts.Protector == nil {
		return nil
	}
	stable, err := opts.Protector.Read(opts.Name)
	if err != nil {
		return err
	}
	if counter+opts.MaxCounterLag < stable {
		return fmt.Errorf("%w: log counter %d < group counter %d", ErrBadCounter, counter, stable)
	}
	return nil
}
