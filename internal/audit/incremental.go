package audit

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/sha256"
	"fmt"
)

// Incremental verification. The offline drivers consume a complete file; a
// live mirror instead receives the same record stream in arbitrary byte
// chunks as the server commits batches. IncrementalVerifier is the chunk-fed
// driver of the verifier core (verifier.go): a reassembly buffer in front of
// the same per-record checks and the same commit ledger, reporting each
// verified signature record — a durable commit point — through a callback.
// It has no end-of-stream verdict, and freshness against a live counter
// quorum is deliberately out of scope: a mirror holds only the enclave's
// public key, so rollback is judged by the set rule on what it holds and on
// what it has verified before (LiveSet).
//
// Its point of judgment is the end of each Feed: the last signature record
// the feed completed is ECDSA-checked, which vouches for every record before
// it, and only then are the feed's commits reported. A feed of one batch
// costs one check, a catch-up feed of a thousand batches also one.
//
// The verifier is strict and latching: the first violation poisons it and
// every later Feed returns the same error. A torn record at the tail is not
// a violation — it is simply buffered until the remaining bytes arrive,
// which is the steady state of tailing a live log mid-batch.

// CommitInfo describes one verified commit point: the state as of a
// signature record that passed every check.
type CommitInfo struct {
	// Seq is the number of verified entries up to and including this commit.
	Seq uint64
	// Chain is the chain head the signature record attests.
	Chain [32]byte
	// Counter is the rollback-counter value bound into the signature.
	Counter uint64
	// Offset is the stream offset just past the signature record.
	Offset int64
	// SigOffset is the offset of the signature record's header.
	SigOffset int64
	// Entries is the number of entries in this batch (since the previous
	// signature record).
	Entries int
}

// IncrementalVerifier verifies an audit-log record stream fed in arbitrary
// byte chunks. Not safe for concurrent use.
type IncrementalVerifier struct {
	opts     VerifyOptions
	onCommit func(CommitInfo) error

	in   recordBuffer
	core chainVerifier
	led  ledger
	// queued are the commit points the current Feed has hash-verified, each
	// with its signature record's payload, awaiting the feed's closing check.
	queued   []queuedCommit
	sigBytes sigCopies
}

type queuedCommit struct {
	info CommitInfo
	raw  []byte
}

// NewIncrementalVerifier builds a chunk-feed verifier starting from the
// empty log state (expecting the file magic first). opts.Protector is
// ignored — incremental verification has no final verdict at which to check
// quorum freshness; LiveSet judges what a stream may roll back. onCommit, if
// non-nil, runs for every verified signature record once the feed that
// completed it has passed its closing check; returning an error from it
// poisons the verifier. The verifier does not retain entries.
func NewIncrementalVerifier(opts VerifyOptions, onCommit func(CommitInfo) error) *IncrementalVerifier {
	v := &IncrementalVerifier{opts: opts, onCommit: onCommit}
	v.in.kind = &logStream
	v.core.names, v.core.batch = map[string]string{}, sha256.New()
	v.led, _ = newLedger(nil) // from the empty log: cannot fail
	return v
}

// resume adopts p, a commit point its caller has authenticated against the
// stream (livePoint.proves), so the stream can be fed from p.Offset onward (no
// file magic expected).
func (v *IncrementalVerifier) resume(p *livePoint) {
	v.led = p.ledger()
	v.in.resumeAt(p.Offset)
	v.core.seq, v.core.chain, v.core.sigHead, v.core.sigs = p.Seq, p.Chain, p.SigHash, p.Batches
}

// Feed consumes the next chunk of the record stream. It verifies every
// record that is now complete, ECDSA-checks the last signature record among
// them and then reports their commit points; it returns the first violation
// in stream order (wrapped in ErrTampered). Incomplete trailing bytes are
// buffered for the next call. Once an error is returned the verifier is
// poisoned and returns it forever.
func (v *IncrementalVerifier) Feed(p []byte) error {
	if v.in.failed != nil {
		return v.in.failed
	}
	v.in.feed(p, v.record)
	if fe, framing := v.in.failed.(*frameError); framing {
		v.in.failed = fe.at(0, v.in.off, v.core.sigs, v.core.inBatch)
	}
	v.deliver()
	return v.in.failed
}

func (v *IncrementalVerifier) record(rec record) error {
	switch rec.typ {
	case recEntry:
		// Records arrive in chunks that need not hold a whole batch, so each
		// is hashed as it is checked.
		if err := v.core.entry(rec.raw, rec.off); err != nil {
			return err
		}
		v.core.span(rec.raw)
	case recSig:
		batch := v.core.inBatch
		counter, tables, err := v.core.sig(rec.payload, rec.off)
		if err != nil {
			return err
		}
		v.led.commit(commitPoint{end: rec.end(), chain: v.core.chain, counter: counter, sigOff: rec.off, sigSum: v.core.sigHead}, tables)
		v.queued = append(v.queued, queuedCommit{raw: v.sigBytes.copy(rec.payload), info: CommitInfo{
			Seq: v.core.seq, Chain: v.core.chain, Counter: counter,
			Offset: rec.end(), SigOffset: rec.off,
			Entries: batch,
		}})
	default:
		return logStream.unknownType(rec.typ).at(0, rec.off, v.core.sigs, v.core.inBatch)
	}
	return nil
}

// deliver runs the feed's closing check and reports its commit points. When
// the last queued signature record does not hold, the locate pass checks the
// queued ones in stream order: the first invalid one is the failure — it
// precedes whichever record the hash checks may have stopped at — and those
// before it are still reported, having been checked in their own right. The
// failure is latched before any callback runs, so a callback never snapshots
// an unvouched commit point.
func (v *IncrementalVerifier) deliver() {
	queued := v.queued
	v.queued = v.queued[:0]
	if len(queued) == 0 {
		return
	}
	i := 0
	good := firstInvalid(v.opts.sigValid, len(queued), queued[len(queued)-1].raw, func() ([]byte, bool) {
		i++
		return queued[i-1].raw, true
	})
	v.sigBytes = v.sigBytes[:0]
	if good < len(queued) {
		v.in.failed = &VerifyError{
			Offset: queued[good].info.SigOffset, Batch: v.led.cur.batches - len(queued) + good,
			Record: -1, Reason: "signature invalid",
		}
	}
	for _, q := range queued[:good] {
		if v.onCommit == nil {
			continue
		}
		if err := v.onCommit(q.info); err != nil {
			v.in.failed = err
			return
		}
	}
}

// sigCopies copies signature payloads into 64 KiB chunks, never regrown.
type sigCopies []byte

func (c *sigCopies) copy(p []byte) []byte {
	if len(*c)+len(p) > cap(*c) {
		*c = make([]byte, 0, max(64<<10, len(p)))
	}
	*c = append(*c, p...)
	return (*c)[len(*c)-len(p) : len(*c) : len(*c)]
}

// Offset is the stream offset of the next byte to be received: everything
// framed so far plus any buffered partial record.
func (v *IncrementalVerifier) Offset() int64 { return v.in.off + int64(len(v.in.buf)) }

// Seq is the number of verified entries, those past the last commit point
// included; Batches the verified commit count.
func (v *IncrementalVerifier) Seq() uint64  { return v.core.seq }
func (v *IncrementalVerifier) Batches() int { return v.led.cur.batches }

// Tables returns the per-table tuple counts under the last commit point: the
// verifier's own map, brought up to date by the call, which later feeds
// change; callers must copy it if they retain it.
func (v *IncrementalVerifier) Tables() map[string]int { return v.led.counts() }

// manifestReplayer applies the per-manifest checks — the shard count,
// strictly increasing epochs, non-decreasing manifest counter, the link to the
// previous record and the enclave signature — one manifest at a time, for the
// offline replay (replayRecords) and the live one (LiveSet) alike. The
// offline replay runs the hash-only checks (check, advance) on every record
// and the ECDSA check on the last, which vouches for the rest through the
// links; the live one checks each record as it arrives (Verify). Commit-point
// membership (does each attested shard state exist in the shard's verified
// history?) stays with the caller: commitSet offline, LiveSet live.
type manifestReplayer struct {
	// Name is the log-set name bound into each manifest's digest.
	Name string
	// Pub verifies manifest signatures; nil skips the ECDSA check (the
	// structural, monotonicity and link checks still apply).
	Pub *ecdsa.PublicKey
	// Shards is the expected shard count; 0 disables the check.
	Shards int

	n       int
	epoch   uint64
	counter uint64
	head    [32]byte // the digest the next record's Prev must name: zero at a sidecar's head
	seeded  bool
}

// Seed adopts a remembered (epoch, counter) floor — a mirror resuming from
// its checkpoint, or re-reading a rewritten sidecar — so the next manifest
// must strictly advance the epoch past it, and link to head: the digest of
// the record the stream resumes after, or zero for a stream read from the
// sidecar's head. Without seeding, the first manifest's epoch is accepted
// as-is, matching the offline replay.
func (r *manifestReplayer) Seed(epoch, counter uint64, head [32]byte) {
	r.epoch, r.counter, r.head, r.seeded = epoch, counter, head, true
}

// check applies the hash-only checks to m, the next record.
func (r *manifestReplayer) check(m *Manifest) error {
	switch {
	case r.Shards > 0 && len(m.Shards) != r.Shards:
		return fmt.Errorf("%w: manifest %d attests %d shards, set has %d", ErrTampered, r.n, len(m.Shards), r.Shards)
	case (r.n > 0 || r.seeded) && m.Epoch <= r.epoch:
		return fmt.Errorf("%w: manifest %d: epoch %d not after %d", ErrTampered, r.n, m.Epoch, r.epoch)
	case m.Counter < r.counter:
		return fmt.Errorf("%w: manifest %d: counter %d regressed below %d", ErrTampered, r.n, m.Counter, r.counter)
	case m.Prev != r.head:
		return fmt.Errorf("%w: manifest %d (epoch %d): link mismatch", ErrTampered, r.n, m.Epoch)
	}
	return nil
}

// advance moves the replayer's floor past m, a record that passed check.
func (r *manifestReplayer) advance(m *Manifest) {
	r.epoch, r.counter, r.head = m.Epoch, m.Counter, m.digest()
	r.n++
}

// Verify checks one manifest, its signature included, and advances the
// replayer's floor.
func (r *manifestReplayer) Verify(m *Manifest) error {
	if err := r.check(m); err != nil {
		return err
	}
	if !validManifest(r.Pub, r.Name, m.payload) {
		return fmt.Errorf("%w: manifest %d (epoch %d): signature invalid", ErrTampered, r.n, m.Epoch)
	}
	r.advance(m)
	return nil
}

// Epoch and Counter report the replayer's current epoch/counter floor.
func (r *manifestReplayer) Epoch() uint64   { return r.epoch }
func (r *manifestReplayer) Counter() uint64 { return r.counter }

// IncrementalManifestReader reassembles manifest records from a sidecar
// byte stream fed in arbitrary chunks — the manifest counterpart of
// IncrementalVerifier's framing. Each complete record is parsed and handed,
// with the record, to the callback; semantic validation is the callback's job
// (LiveSet.manifest). Latching, like IncrementalVerifier.
type IncrementalManifestReader struct {
	onManifest func(*Manifest, record) error
	in         recordBuffer
}

// newIncrementalManifestReader builds a chunk-feed sidecar reader starting
// at the file head (magic expected first).
func newIncrementalManifestReader(onManifest func(*Manifest, record) error) *IncrementalManifestReader {
	r := &IncrementalManifestReader{onManifest: onManifest}
	r.in.kind = &manifestStream
	return r
}

// Feed consumes the next chunk of the sidecar stream, parsing every complete
// record. The first failure poisons the reader.
func (r *IncrementalManifestReader) Feed(p []byte) error { return r.in.feed(p, r.record) }

func (r *IncrementalManifestReader) record(rec record) error {
	// A manifest's signature aliases its payload, and the payload is the feed's.
	m, err := parseManifest(bytes.Clone(rec.payload))
	if err != nil {
		return err
	}
	return r.onManifest(m, rec)
}

// Offset is the sidecar offset just past the last fully parsed record.
func (r *IncrementalManifestReader) Offset() int64 { return r.in.off }

// Buffered is the number of received-but-unparsed bytes.
func (r *IncrementalManifestReader) Buffered() int { return len(r.in.buf) }
