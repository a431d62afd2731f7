package audit

import (
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"maps"

	"libseal/internal/enclave"
)

// The verifier. What makes a log the one the enclave wrote is a rule about
// records: every entry decodes and carries the next sequence number;
// every signature record attests exactly the head the chain reaches over its
// batch (batchChain) and links to the signature record before it; and the
// signature record a verdict rests on carries the enclave's signature, which
// through the two hash chains vouches for every record before it. That rule
// is written once, in chainVerifier and validSig. Around it sit a ledger (what
// has been committed: the last signature record and the running totals a
// result or a checkpoint reports), a merger (folds verified runs into the
// ledger batch by batch in stream order and gives the end-of-stream verdict)
// and two drivers that differ only in how bytes arrive: verifyStream's worker
// pool over a whole file or image (parverify.go; every shard VerifyPath scans,
// recovery, a land's staged images) and the chunk-fed IncrementalVerifier
// (incremental.go). No driver keeps entries: they leave through OnSegment
// (SegmentInfo.Entries). DESIGN.md §13 has the table.

// VerifyOptions controls persisted-log verification.
type VerifyOptions struct {
	// Pub is the enclave's signing public key (bound to the enclave by an
	// attestation quote).
	Pub *ecdsa.PublicKey
	// Protector, when set, checks counter freshness against the group: each
	// shard against its own counter and the sidecar against the manifest
	// counter, all named from the set.
	Protector RollbackProtector
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

// VerifyError is a rejection that says where in the log it was raised: by one
// record's own checks, by the framing (at the header where the stream stops
// parsing) or by the end-of-stream verdict (where the unsigned entries start;
// at the corrupted record inside the signed prefix). Its text is the sentence
// alone, so verdicts compare equal whether or not a caller looks at the
// location; it unwraps to ErrTampered.
type VerifyError struct {
	// Shard is the ordinal of the shard whose file holds the record.
	Shard int
	// Offset is the byte offset of the failing record's header in its file.
	Offset int64
	// Batch is the ordinal of the signature record that fails, or that would
	// have closed the failing entry's batch.
	Batch int
	// Record is the failing entry's ordinal within its batch (of the record
	// that does not frame, for a framing error), -1 when a signature record
	// itself fails.
	Record int
	// Reason says which check failed.
	Reason string
	// stream marks a framing error or end-of-stream verdict: its sentence
	// names no signature record even where it is located at one.
	stream bool
}

func (e *VerifyError) Error() string {
	if e.Record < 0 && !e.stream {
		return fmt.Sprintf("%v: signature record %d: %s", ErrTampered, e.Batch, e.Reason)
	}
	return fmt.Sprintf("%v: %s", ErrTampered, e.Reason)
}

func (e *VerifyError) Unwrap() error { return ErrTampered }

// sigRecord is a parsed signature record; sig aliases the payload.
type sigRecord struct {
	chain   [32]byte // chain head attested
	counter uint64   // rollback-counter value bound
	prev    [32]byte // digest of the previous signature record's payload
	sig     enclave.Signature
}

// parseSig decodes a signature record (layout: sigPayload).
func parseSig(payload []byte) (rec sigRecord, err error) {
	if len(payload) < 72 {
		return rec, ErrTampered
	}
	copy(rec.chain[:], payload)
	rec.counter = binary.BigEndian.Uint64(payload[32:])
	copy(rec.prev[:], payload[40:])
	r, rest, err := cutString(payload[72:])
	if err != nil {
		return rec, err
	}
	s, rest, err := cutString(rest)
	if err != nil {
		return rec, err
	}
	rec.sig = enclave.Signature{R: r, S: s}
	if len(rest) != 0 {
		// The ECDSA signature covers only the chain head, counter and link,
		// so trailing payload bytes would let an inflated length field swallow
		// neighbouring records without invalidating the record.
		err = errors.New("trailing bytes after signature")
	}
	return rec, err
}

// validSig is the ECDSA half of the rule: whether a signature record carries
// the enclave's signature over what it attests. Without a key there is
// nothing to check.
func validSig(pub *ecdsa.PublicKey, payload []byte) bool {
	if pub == nil {
		return true
	}
	mVerifySignatures.Inc()
	rec, err := parseSig(payload)
	return err == nil && enclave.VerifySignature(pub, sigDigest(rec.chain, rec.counter, rec.prev), rec.sig)
}

// sigValid is validSig under the options' key, for firstInvalid.
func (o *VerifyOptions) sigValid(payload []byte) bool { return validSig(o.Pub, payload) }

// chainVerifier is the record-level core: the position in the two hash chains
// and the checks that advance it. It is strict — the first error is final —
// and knows nothing of framing, commit points or verdicts; a driver seeds it
// at any verified (or, for a parallel segment, claimed) position. Every error
// it returns is a *VerifyError.
//
// Its checks are hash-only. ECDSA runs at the drivers' points of judgment
// (firstInvalid), on the signature record about to be rested
// on, which vouches for every record before it through prev and the chain
// head; where it does not hold, the locate pass names the first invalid one
// (DESIGN.md §13).
type chainVerifier struct {
	shard   int               // names the shard in errors
	seq     uint64            // sequence number the next entry must carry
	chain   [32]byte          // chain head as of the last signature record
	batch   hash.Hash         // the open batch's chain step: the head before it, then its entry records so far
	hashing bool              // batch has the head before the open batch written into it
	sigHead [32]byte          // digest of the last signature record, zero before a file's first
	sigs    int               // ordinal of the next signature record, naming it in errors
	inBatch int               // entries since the last signature record
	tables  []tableSpan       // those entries by table
	names   map[string]string // table names seen, so that each is one string however many entries carry it
	last    string            // the table name the last entry carried
}

// reject builds the error for the record whose header sits at off.
func (v *chainVerifier) reject(off int64, record int, reason string) error {
	return &VerifyError{Shard: v.shard, Offset: off, Batch: v.sigs, Record: record, Reason: reason}
}

// entry checks one entry record, header and payload as they lie: walks the
// payload (walkEntry) without building the entry. It hashes nothing: the
// driver feeds the record to span.
func (v *chainVerifier) entry(rec []byte, off int64) error {
	seq, name, err := walkEntry(rec[5:], nil)
	if err != nil {
		return v.reject(off, v.inBatch, err.Error())
	}
	if seq != v.seq {
		return v.reject(off, v.inBatch, fmt.Sprintf("sequence gap at %d", v.seq))
	}
	if string(name) != v.last { // entries run in tables
		table, seen := v.names[string(name)]
		if !seen {
			table = string(name)
			v.names[table] = table
		}
		v.last = table
	}
	if k := len(v.tables); k > 0 && v.tables[k-1].table == v.last {
		v.tables[k-1].n++
	} else {
		v.tables = append(v.tables, tableSpan{v.last, 1})
	}
	v.seq++
	v.inBatch++
	return nil
}

// span feeds entry records of the open batch, as stored, into its chain
// step: the verifier's one chain hashing site. A driver feeds every entry
// record of the batch exactly once, in stream order, in spans of any length
// — the pipeline the whole batch in one span at its signature record, the
// chunk-fed driver each record as it arrives — and the step is the same
// SHA-256(head ‖ records) either way.
func (v *chainVerifier) span(p []byte) {
	if len(p) == 0 {
		return
	}
	if !v.hashing {
		v.batch.Reset()
		v.batch.Write(v.chain[:])
		v.hashing = true
	}
	v.batch.Write(p)
}

// sig checks one signature record's payload against the head its batch takes
// the chain to and the signature record before it, and closes the batch: it
// returns the counter the record binds and the batch's entries by table, valid
// until the next entry. Counters may legitimately regress between records (a
// recovery that re-anchored on a rebuilt counter group), so rollback is judged
// against the live group by the verdict, never record to record.
func (v *chainVerifier) sig(payload []byte, off int64) (counter uint64, batch []tableSpan, err error) {
	if v.hashing {
		v.batch.Sum(v.chain[:0])
		v.hashing = false
	}
	rec, err := parseSig(payload)
	switch {
	case err != nil:
		return 0, nil, v.reject(off, -1, err.Error())
	case rec.chain != v.chain:
		return 0, nil, v.reject(off, -1, "chain hash mismatch")
	case rec.prev != v.sigHead:
		return 0, nil, v.reject(off, -1, "signature link mismatch")
	}
	batch, v.tables = v.tables, v.tables[:0]
	v.sigs++
	v.inBatch = 0
	v.sigHead = sha256.Sum256(payload)
	return rec.counter, batch, nil
}

// commitPoint is the verified state as of one signature record.
type commitPoint struct {
	end     int64    // stream offset just past the record
	chain   [32]byte // chain head it attests
	counter uint64   // rollback-counter value it binds
	sigOff  int64    // offset of the record's header
	sigSum  [32]byte // SHA-256 of its payload; with sigOff, what binds a checkpoint to one file
}

// totals is the running state of a verified prefix: its last commit point
// and the counts a Checkpoint and a StreamResult carry. A valid file numbers
// its entries from 0, so seq is also how many there are.
type totals struct {
	commitPoint
	seq               uint64 // entries under the commit point = the next entry's sequence number
	batches, maxBatch int
}

// ledger is the commit bookkeeping every driver keeps.
type ledger struct {
	base    totals         // where this scan started: the empty log, or a checkpoint's state
	resumed bool           // base came from a checkpoint
	cur     totals         // base plus everything committed since
	scanMax int            // largest batch this scan committed
	tables  map[string]int // per-table entry counts under the last commit point, but for open's
	open    tableSpan      // the entries committed since tables was brought up to date, all of one table
}

// newLedger starts from checkpoint c, or from the empty log when c is nil
// (which cannot fail).
func newLedger(c *Checkpoint) (ledger, error) {
	if c == nil {
		return (*livePoint)(nil).ledger(), nil
	}
	p, err := c.point()
	if err != nil {
		return ledger{}, err
	}
	l := p.ledger()
	l.base.maxBatch, l.cur.maxBatch = c.MaxBatch, c.MaxBatch
	return l, nil
}

// ledger starts a ledger at commit point p, or at the empty log when p is nil.
func (p *livePoint) ledger() ledger {
	l := ledger{tables: map[string]int{}, resumed: p != nil}
	l.base.end = int64(len(fileMagic))
	if p != nil {
		l.base = totals{
			commitPoint: commitPoint{end: p.Offset, chain: p.Chain, counter: p.Counter, sigOff: p.SigOffset, sigSum: p.SigHash},
			seq:         p.Seq, batches: p.Batches,
		}
		maps.Copy(l.tables, p.Tables)
	}
	l.cur = l.base
	return l
}

// commit closes a batch, whose entries by table are batch, at its signature
// record.
func (l *ledger) commit(cp commitPoint, batch []tableSpan) {
	n := 0
	for _, s := range batch {
		if s.table != l.open.table {
			l.counts()
			l.open.table = s.table
		}
		l.open.n += s.n
		n += s.n
	}
	l.cur.commitPoint = cp
	l.cur.seq += uint64(n)
	l.cur.batches++
	l.cur.maxBatch = max(l.cur.maxBatch, n)
	l.scanMax = max(l.scanMax, n)
}

// counts brings the per-table counts up to date and returns them: a log's
// entries run in tables, so the map is touched once per run of one table, not
// once per batch.
func (l *ledger) counts() map[string]int {
	if l.open.n > 0 {
		l.tables[l.open.table] += l.open.n
	}
	l.open = tableSpan{}
	return l.tables
}

// checkpoint snapshots the last commit point as resumable sidecar state. The
// signature record's offset and payload hash bind it to this exact file;
// resume refuses a log that was trimmed or swapped underneath it. The caller
// must have ECDSA-checked that record: a checkpoint is a point of judgment.
func (l *ledger) checkpoint(shard int) *Checkpoint {
	tables := maps.Clone(l.counts())
	t := &l.cur
	return &Checkpoint{
		Version: checkpointVersion, Shard: shard,
		Offset: t.end, Seq: t.seq, Chain: hexChain(t.chain), Counter: t.counter,
		Batches: t.batches, MaxBatch: t.maxBatch, Tables: tables,
		SigOffset: t.sigOff, SigHash: hex.EncodeToString(t.sigSum[:]),
	}
}

// point is the last commit point as a resume starts from it; the caller
// must have ECDSA-checked its record.
func (l *ledger) point() *livePoint {
	t := &l.cur
	return &livePoint{Offset: t.end, Seq: t.seq, Chain: t.chain, Counter: t.counter, Batches: t.batches,
		Tables: maps.Clone(l.counts()), SigOffset: t.sigOff, SigHash: t.sigSum}
}

// result reports the committed prefix: Batches and MaxBatch what this scan
// verified, the totals with the checkpointed prefix folded in.
func (l *ledger) result() *StreamResult {
	return &StreamResult{
		Counter: l.cur.counter, CommittedBytes: l.cur.end, SigHead: l.cur.sigSum, Chain: l.cur.chain,
		Batches: l.cur.batches - l.base.batches, MaxBatch: l.scanMax,
		TotalEntries: int(l.cur.seq), TotalBatches: l.cur.batches, TotalMaxBatch: l.cur.maxBatch,
		Tables: l.counts(), Resumed: l.resumed,
	}
}

// shardRef is what a driver is told of the file it verifies: the shard
// ordinal it stamps on segments, checkpoints and errors, the counter whose
// freshness it judges, and where its checkpoints go ("" for nowhere).
type shardRef struct {
	k       int
	counter string
	sidecar string
}

// sigWindow bounds how many signature records the pipeline folds between two
// ECDSA checks, and with it how far back a locate pass reads: a log of any
// length verifies for one extra check per window.
const sigWindow = 1 << 14

// logSource is a shard's stream as the pipeline reads it: in order, by the
// scanner, and at an offset, by a locate pass reading back its window.
// *os.File and *bytes.Reader are both.
type logSource interface {
	io.Reader
	io.ReaderAt
}

// merger folds verified runs into the ledger batch by batch, in stream order,
// for the pipeline, runs the ECDSA checks at their points of judgment,
// latches the first failure and gives the final verdict. What it keeps per
// batch is counts; telemetry is published once per run.
type merger struct {
	opts *StreamOptions
	at   shardRef
	src  io.ReaderAt // the stream, for a locate pass
	led  ledger
	stop <-chan struct{} // closed when the scan is cancelled: nothing folds after; nil if it cannot be

	pending int // entries verified past the last signature record

	// held is the newest batch, hash-verified but not yet folded: it folds
	// unchecked once a successor arrives to vouch for it, and is judged first
	// when nothing will — so a tolerant verdict that has to drop it as crash
	// debris has neither counted nor delivered it.
	held *batch
	pool runPool
	prev *run // the last run folded, which held may alias
	// unchecked counts the signature records folded since the last ECDSA
	// check, the one about to fold while it is judged included; they lie in
	// the stream from checked, just past the last record checked (or the
	// scan's start), on. That window is what a locate pass reads back.
	unchecked int
	checked   int64

	failed     error // first failure, in stream order: a *VerifyError
	failedSigs int   // signature records of this scan up to and including the failing record
	cbErr      error // OnSegment asked to abort; not a verdict

	ckptSegs  int
	ckptBytes int64

	segs, entries, bytes int64 // folded since telemetry was last published
}

// newMerger starts a merger of shard at's stream src from the ledger's base,
// recycling the runs it retires through pool.
func newMerger(opts *StreamOptions, at shardRef, src io.ReaderAt, led ledger, pool runPool) *merger {
	return &merger{opts: opts, at: at, src: src, led: led, pool: pool, checked: led.base.end}
}

// fold merges one run's verdict: its batches one by one, then the failure or
// the unsigned tail it ends in. It returns false when merging must stop (a
// verification failure, a callback abort, cancellation).
func (m *merger) fold(r *run) bool {
	for i := range r.batches {
		select {
		case <-m.stop:
			return false
		default:
		}
		if !m.settle(false) {
			return false
		}
		m.held = &r.batches[i]
	}
	switch {
	case r.err != nil:
		// The held batch closes with the nearest signature record before the
		// failure: if it does not hold, an invalid signature comes first in
		// the stream and is the failure instead.
		if m.settle(true) {
			// Signature records before the failure are those before the run,
			// its verified batches', and the failing one if that is what failed.
			m.failed, m.failedSigs = r.err, r.index+len(r.batches)
			if r.atSig {
				m.failedSigs++
			}
		}
		return false
	case r.open > 0:
		// Entries past the last signature record: verified but uncommitted.
		// Only the last run of a stream has them, so the held batch closes
		// with the scan's last signature record.
		m.pending = r.open
		return m.settle(true)
	}
	return true
}

// retire follows a clean fold of r and hands the run before it back to the
// pool: its held batch is settled, so nothing reads its block again. The
// run's folds are published.
func (m *merger) retire(r *run) {
	if m.prev != nil {
		m.pool.put(m.prev)
	}
	m.prev = r
	m.publish()
}

// publish adds what was folded since it last ran to the telemetry.
func (m *merger) publish() {
	mVerifySegments.Add(m.segs)
	mVerifyEntries.Add(m.entries)
	mVerifyBytes.Add(m.bytes)
	m.segs, m.entries, m.bytes = 0, 0, 0
}

// release ends the scan, once its verdict is in: the folds not yet published
// are, and every run goes back to idleRuns.
func (m *merger) release() {
	m.publish()
	m.pool.release(m.prev)
	m.prev, m.held = nil, nil
}

// settle folds the held batch, if any, into the ledger. Its signature is
// ECDSA-checked first when last says no later record will vouch for it, when
// a checkpoint is due at it, or when the unchecked window is full. It returns
// false when that check failed or OnSegment aborted.
func (m *merger) settle(last bool) bool {
	b := m.held
	if b == nil {
		return true
	}
	m.held = nil
	payloadBytes := int64(len(b.raw) - 5*b.n) // for telemetry and the checkpoint cadence
	cfg := m.opts.Checkpoint
	save := cfg != nil && m.at.sidecar != "" && m.checkpointDue(cfg, payloadBytes)
	if m.unchecked++; (last || save || m.unchecked > sigWindow) && !m.judge(b) {
		return false
	}
	m.segs++
	m.entries += int64(b.n)
	m.bytes += payloadBytes
	m.led.commit(b.commitPoint, b.tables)
	if m.opts.OnSegment != nil {
		if err := m.opts.OnSegment(SegmentInfo{
			Shard: m.at.k, Index: m.led.cur.batches - m.led.base.batches - 1, NumEntries: b.n,
			Counter: b.counter, EndSeq: m.led.cur.seq, Chain: b.chain, CommittedBytes: b.end, batch: b,
		}); err != nil {
			m.cbErr = err
			return false
		}
	}
	if save {
		if err := m.led.checkpoint(m.at.k).Save(m.at.sidecar); err == nil {
			mVerifyCheckpoints.Inc()
		} else if cfg.OnError != nil {
			cfg.OnError(err)
		}
	}
	return true
}

// checkpointDue counts one more committed segment towards the checkpoint
// cadence and reports whether a checkpoint is due at it.
func (m *merger) checkpointDue(cfg *CheckpointConfig, bytes int64) bool {
	m.ckptSegs++
	m.ckptBytes += bytes
	every, everyBytes := cfg.EverySegments, cfg.EveryBytes
	if every <= 0 {
		every = defaultCheckpointSegments
	}
	if everyBytes <= 0 {
		everyBytes = defaultCheckpointBytes
	}
	if m.ckptSegs < every && m.ckptBytes < everyBytes {
		return false
	}
	m.ckptSegs, m.ckptBytes = 0, 0
	return true
}

// judge is the merger's point of judgment at b, the batch about to fold,
// whose signature record closes the unchecked window. The locate pass reads
// the window back from the stream, from where the last checked record ended.
// b's own record is the failure when every record before it holds, as it is
// when the stream no longer reads back as it scanned: the verdict is a
// rejection either way.
func (m *merger) judge(b *batch) bool {
	n := m.unchecked
	var rr *recordReader
	var off int64
	bad := firstInvalid(m.opts.sigValid, n, b.sig, func() ([]byte, bool) {
		if rr == nil {
			rr = &recordReader{r: io.NewSectionReader(m.src, m.checked, b.sigOff-m.checked), kind: &logStream, off: m.checked}
		}
		for {
			rec, err := rr.next()
			if err != nil {
				return nil, false
			}
			if rec.typ == recSig {
				off = rec.off
				return rec.payload, true
			}
		}
	})
	if bad == n {
		m.unchecked, m.checked = 0, b.end
		return true
	}
	if bad == n-1 {
		off = b.sigOff
	}
	// b's record is the next to fold: ordinal cur.batches.
	ordinal := m.led.cur.batches - (n - 1) + bad
	m.failed = &VerifyError{Shard: m.at.k, Offset: off, Batch: ordinal, Record: -1, Reason: "signature invalid"}
	m.failedSigs = ordinal - m.led.base.batches + 1
	m.unchecked = 0
	return false
}

// firstInvalid is a driver's point of judgment over the n linked records —
// a log's signature records, a sidecar's manifests — not yet vouched for, all
// of which passed the hash checks, last the payload of the final one. It
// ECDSA-checks last (valid), which vouches for the rest, and returns n. If
// that does not hold it runs the locate pass — next yields the others'
// payloads in stream order — and returns the index of the first invalid one,
// or n-1 when they all hold or next runs dry.
func firstInvalid(valid func([]byte) bool, n int, last []byte, next func() ([]byte, bool)) int {
	if valid(last) {
		return n
	}
	mVerifyLocates.Inc()
	for i := 0; i < n-1; i++ {
		p, ok := next()
		if !ok {
			break
		}
		if !valid(p) {
			return i
		}
	}
	return n - 1
}

// finish is the end-of-stream verdict, in order of precedence: bad magic, and
// in strict mode any framing error, preempt everything (a stream that does
// not parse is judged before anything in it); then the first failure in
// stream order, the closing signature check included; then an unknown record
// type; then entries left unsigned at the end; then counter freshness.
// Tolerant mode forgives framing errors and a failure as crash debris, but
// only when no signature record follows the failure: one that does proves the
// damage sits inside the committed prefix.
func (m *merger) finish(end scanEnd) (*StreamResult, error) {
	opts := &m.opts.VerifyOptions
	strict := !opts.RecoverTruncated
	if end.badMagic || strict && end.streamErr != nil {
		return nil, end.streamErr
	}
	// The commit point about to be accepted is the one the verdict rests on.
	if m.failed == nil && !m.settle(true) && m.cbErr != nil {
		return nil, m.cbErr
	}
	pending := m.pending
	switch {
	case m.failed != nil && strict:
		return nil, m.failed
	case m.failed != nil && end.totalSigs > m.failedSigs:
		at := *m.failed.(*VerifyError)
		at.Reason, at.stream = "corrupted entry inside signed prefix", true
		return nil, &at
	case m.failed == nil && end.unknownErr != nil:
		return nil, end.unknownErr
	case strict && pending > 0:
		// Strict verification demands the file end at a signed prefix; the
		// unsigned entries are located where they start.
		reason := fmt.Sprintf("%d entries after the last signature record", pending)
		if m.led.cur.batches == 0 {
			reason = "missing signature record"
		}
		return nil, &VerifyError{Shard: m.at.k, Offset: m.led.cur.end, Batch: m.led.cur.batches, Reason: reason, stream: true}
	}
	// Freshness applies to every accepted outcome, the empty log included:
	// "no batches" under a group counter that has moved is a rollback.
	if err := checkFreshness(m.led.cur.counter, m.at.counter, *opts); err != nil {
		return nil, err
	}
	return m.led.result(), nil
}

// checkFreshness compares the log's committed counter against the rollback
// group's stable value of the named counter.
func checkFreshness(counter uint64, name string, opts VerifyOptions) error {
	if opts.Protector == nil {
		return nil
	}
	stable, err := opts.Protector.Read(name)
	if err != nil {
		return err
	}
	if counter+opts.MaxCounterLag < stable {
		return fmt.Errorf("%w: log counter %d < group counter %d", ErrBadCounter, counter, stable)
	}
	return nil
}
