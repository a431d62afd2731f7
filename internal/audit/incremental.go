package audit

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"libseal/internal/enclave"
)

// Incremental verification. The offline drivers consume a complete file; a
// live mirror instead receives the same record stream in arbitrary byte
// chunks as the server commits batches. IncrementalVerifier is the chunk-fed
// driver of the verifier core (verifier.go): a reassembly buffer in front of
// the same per-record checks and the same commit ledger, reporting each
// verified signature record — a durable commit point — through a callback.
// It has no end-of-stream verdict, and freshness against a live counter
// quorum is deliberately out of scope: a mirror holds only the enclave's
// public key, so rollback is judged by continuity (see internal/audit/mirror)
// and by manifest replay via ManifestReplayer.
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
	// SigOffset / SigHash bind the commit to the record: the offset of the
	// signature record's header and the hex SHA-256 of its payload (the same
	// binding Checkpoint carries).
	SigOffset int64
	SigHash   string
	// Entries is the number of entries in this batch (since the previous
	// signature record).
	Entries int
}

// IncrementalVerifier verifies an audit-log record stream fed in arbitrary
// byte chunks. Not safe for concurrent use.
type IncrementalVerifier struct {
	opts     VerifyOptions
	onCommit func(CommitInfo) error

	in         recordBuffer
	core       chainVerifier
	led        ledger
	maxCounter uint64
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
// quorum freshness; callers judge freshness by continuity. onCommit, if
// non-nil, runs for every verified signature record once the feed that
// completed it has passed its closing check; returning an error from it
// poisons the verifier. The verifier does not retain entries.
func NewIncrementalVerifier(opts VerifyOptions, onCommit func(CommitInfo) error) *IncrementalVerifier {
	v := &IncrementalVerifier{opts: opts, onCommit: onCommit}
	v.in.kind = &logStream
	v.core.opts, v.core.names, v.core.batch = &v.opts, map[string]string{}, sha256.New()
	v.led, _ = newLedger(nil) // from the empty log: cannot fail
	return v
}

// Resume adopts a checkpoint's verified-prefix state so the stream can be
// fed from c.Offset onward (no file magic expected). The caller must have
// authenticated the checkpoint against the log it is resuming — via
// Checkpoint.MatchProof on a fetched signature record, or matchFile locally
// — exactly as the offline resume path does; Resume itself trusts its input.
func (v *IncrementalVerifier) Resume(c *Checkpoint) error {
	led, err := newLedger(c)
	if err != nil {
		return err
	}
	v.led = led
	v.in.resumeAt(c.Offset)
	v.core.seq, v.core.chain, v.core.sigHead, v.core.sigs = c.Seq, led.base.chain, led.base.sigSum, c.Batches
	v.maxCounter = c.Counter
	return nil
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
		return v.core.entry(rec.raw, rec.off)
	case recSig:
		batch := v.core.inBatch
		counter, tables, err := v.core.sig(rec.payload, rec.off)
		if err != nil {
			return err
		}
		v.led.commit(commitPoint{end: rec.end(), chain: v.core.chain, counter: counter, sigOff: rec.off, sigSum: v.core.sigHead}, tables)
		v.queued = append(v.queued, queuedCommit{raw: v.sigBytes.copy(rec.payload), info: CommitInfo{
			Seq: v.core.seq, Chain: v.core.chain, Counter: counter,
			Offset: rec.end(), SigOffset: rec.off, SigHash: hex.EncodeToString(v.core.sigHead[:]),
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
	good := firstInvalid(v.opts.Pub, queued, func(q queuedCommit) []byte { return q.raw })
	v.sigBytes = v.sigBytes[:0]
	if good < len(queued) {
		v.in.failed = &VerifyError{
			Offset: queued[good].info.SigOffset, Batch: v.led.cur.batches - len(queued) + good,
			Record: -1, Reason: "signature invalid",
		}
	}
	for _, q := range queued[:good] {
		v.maxCounter = max(v.maxCounter, q.info.Counter)
		if v.onCommit == nil {
			continue
		}
		if err := v.onCommit(q.info); err != nil {
			v.in.failed = err
			return
		}
	}
}

// Offset is the stream offset of the next byte to be received: everything
// framed so far plus any buffered partial record.
func (v *IncrementalVerifier) Offset() int64 { return v.in.off + int64(len(v.in.buf)) }

// Seq and Entries are the number of verified entries, those past the last
// commit point included; MaxCounter the highest verified signature
// counter; Batches the verified commit count.
func (v *IncrementalVerifier) Seq() uint64        { return v.core.seq }
func (v *IncrementalVerifier) MaxCounter() uint64 { return v.maxCounter }
func (v *IncrementalVerifier) Batches() int       { return v.led.cur.batches }
func (v *IncrementalVerifier) Entries() int       { return v.led.cur.entries + v.core.inBatch }

// Tables returns the per-table tuple counts under the last commit point (live
// map; callers must copy if they retain it).
func (v *IncrementalVerifier) Tables() map[string]int { return v.led.tables }

// Checkpoint snapshots the verified prefix as a resumable sidecar state, or
// nil before the first commit point. Between feeds the last commit point is
// the one the last feed's closing check passed on — the only checkpointable
// kind — so take the snapshot after Feed returns nil, or from inside onCommit,
// where it is that feed's last commit whichever commit is being reported.
func (v *IncrementalVerifier) Checkpoint(shard int) *Checkpoint {
	if v.led.cur.batches == 0 || v.in.failed != nil {
		return nil
	}
	return v.led.checkpoint(shard)
}

// ManifestReplayer applies the per-manifest checks of replayManifests — the
// shard count, strictly increasing epochs, non-decreasing manifest counter
// and the enclave signature — one manifest at a time, so a live mirror can
// replay the sidecar stream incrementally with the same semantics as the
// offline sharded verifier. Commit-point membership (does each attested
// shard state exist in the shard's verified history?) stays with the caller:
// offline it is a set lookup, live it is deferred until the shard stream
// catches up.
type ManifestReplayer struct {
	// Name is the log-set name bound into each manifest's digest.
	Name string
	// Pub verifies manifest signatures; nil skips the ECDSA check (the
	// structural and monotonicity checks still apply).
	Pub *ecdsa.PublicKey
	// Shards is the expected shard count; 0 disables the check.
	Shards int

	n       int
	epoch   uint64
	counter uint64
	seeded  bool
}

// Seed adopts a remembered (epoch, counter) floor — a mirror resuming from
// its checkpoint, or re-reading a rewritten sidecar — so the next manifest
// must strictly advance the epoch past it. Without seeding, the first
// manifest's epoch is accepted as-is, matching the offline replay.
func (r *ManifestReplayer) Seed(epoch, counter uint64) {
	r.epoch, r.counter, r.seeded = epoch, counter, true
}

// Verify checks one manifest and advances the replayer's floor. The error
// messages and semantics match the offline replayManifests record checks.
func (r *ManifestReplayer) Verify(m *Manifest) error {
	if r.Shards > 0 && len(m.Shards) != r.Shards {
		return fmt.Errorf("%w: manifest %d attests %d shards, set has %d", ErrTampered, r.n, len(m.Shards), r.Shards)
	}
	if (r.n > 0 || r.seeded) && m.Epoch <= r.epoch {
		return fmt.Errorf("%w: manifest %d: epoch %d not after %d", ErrTampered, r.n, m.Epoch, r.epoch)
	}
	if m.Counter < r.counter {
		return fmt.Errorf("%w: manifest %d: counter %d regressed below %d", ErrTampered, r.n, m.Counter, r.counter)
	}
	if r.Pub != nil && !enclave.VerifySignature(r.Pub, manifestDigest(r.Name, m), m.Sig) {
		return fmt.Errorf("%w: manifest %d (epoch %d): signature invalid", ErrTampered, r.n, m.Epoch)
	}
	r.epoch, r.counter = m.Epoch, m.Counter
	r.n++
	return nil
}

// Epoch and Counter report the replayer's current epoch/counter floor.
func (r *ManifestReplayer) Epoch() uint64   { return r.epoch }
func (r *ManifestReplayer) Counter() uint64 { return r.counter }

// IncrementalManifestReader reassembles manifest records from a sidecar
// byte stream fed in arbitrary chunks — the manifest counterpart of
// IncrementalVerifier's framing. Each complete record is parsed and handed
// to the callback; semantic validation is the callback's job (typically a
// ManifestReplayer). Latching, like IncrementalVerifier.
type IncrementalManifestReader struct {
	onManifest func(*Manifest) error

	in          recordBuffer
	lastRecOff  int64
	lastRecHash string
}

// NewIncrementalManifestReader builds a chunk-feed sidecar reader starting
// at the file head (magic expected first).
func NewIncrementalManifestReader(onManifest func(*Manifest) error) *IncrementalManifestReader {
	r := &IncrementalManifestReader{onManifest: onManifest}
	r.in.kind = &manifestStream
	return r
}

// ResumeAt adopts a byte offset mid-sidecar (just past a previously read
// record) together with that record's persisted LastRecord binding, which
// the reader keeps reporting; the stream must be fed from offset and no magic
// is expected.
func (r *IncrementalManifestReader) ResumeAt(offset, recOff int64, recHash string) {
	r.in.resumeAt(offset)
	r.lastRecOff, r.lastRecHash = recOff, recHash
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
	r.lastRecOff, r.lastRecHash = rec.off, hexDigest(rec.payload)
	if r.onManifest != nil {
		return r.onManifest(m)
	}
	return nil
}

// Offset is the sidecar offset just past the last fully parsed record.
func (r *IncrementalManifestReader) Offset() int64 { return r.in.off }

// Buffered is the number of received-but-unparsed bytes.
func (r *IncrementalManifestReader) Buffered() int { return len(r.in.buf) }

// LastRecord reports the header offset and payload hash of the last fully
// parsed record — the binding a mirror persists so a resumed session can
// demand proof (via MatchManifestProof) that the sidecar it reconnects to
// still carries that exact record at that exact place. Hash is empty before
// the first record.
func (r *IncrementalManifestReader) LastRecord() (off int64, hash string) {
	return r.lastRecOff, r.lastRecHash
}

// MatchManifestProof authenticates a manifest-resume claim against the raw
// payload of the sidecar record said to sit at recOff: the record must end
// exactly at offset, hash to recHash, parse as a manifest, carry a valid
// enclave signature for the named set (when pub is non-nil), and attest
// exactly the remembered epoch and counter. It is the manifest counterpart
// of Checkpoint.MatchProof: the feed serving the payload is untrusted, so
// any mismatch is ErrCheckpointStale and the caller falls back to a cold
// sidecar re-read rather than adopting the offset.
func MatchManifestProof(payload []byte, name string, pub *ecdsa.PublicKey, offset, recOff int64, recHash string, epoch, counter uint64) error {
	if recOff < int64(len(manifestMagic)) || recOff+5+int64(len(payload)) != offset {
		return fmt.Errorf("%w: manifest record does not end at resume offset", ErrCheckpointStale)
	}
	if hexDigest(payload) != recHash {
		return fmt.Errorf("%w: manifest record hash mismatch", ErrCheckpointStale)
	}
	m, err := parseManifest(payload)
	if err != nil {
		return fmt.Errorf("%w: unparseable manifest record at resume point: %v", ErrCheckpointStale, err)
	}
	if pub != nil && !enclave.VerifySignature(pub, manifestDigest(name, m), m.Sig) {
		return fmt.Errorf("%w: manifest record at resume point fails ECDSA check", ErrCheckpointStale)
	}
	if m.Epoch != epoch || m.Counter != counter {
		return fmt.Errorf("%w: remembered epoch/counter disagree with signed manifest", ErrCheckpointStale)
	}
	return nil
}
