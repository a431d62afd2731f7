package audit

import (
	"context"
	"crypto/sha256"
	"io"
)

// Segmented log scanning. A persisted log is a stream of entry records
// delimited by signature records; every signature record is a commit point
// carrying the chain head it attests. That makes the signature records
// natural cut points for parallel verification: a sequential scanner splits
// the stream into segments — the entries since the previous signature plus
// the signature that closes them — and hands each segment its *claimed*
// starting chain head (the previous signature's attested head) and the digest
// of the previous signature record, which its own must link to. A worker can
// then recompute the segment's hashes and check its signature record's claims
// independently of every other segment: if segment k verifies, its claimed end
// head is the true chain head after its last entry, so segment k+1's claimed
// start is trustworthy by induction and the stitched result equals the
// sequential scan's byte for byte.
//
// The scanner does only cheap structural work (record framing, reading the
// head a signature record claims, hashing the signature record); signature
// parsing, chain hashing and entry decoding — the dominant costs — happen in
// whoever the segments are dispatched to. The ECDSA check is the merger's, at
// its points of judgment (verifier.go).

// segment is one signature-delimited slice of the record stream: the entry
// payloads since the previous commit point plus (except for a trailing
// unsigned segment) the signature record that closes them.
type segment struct {
	index      int      // dispatch ordinal; equals the count of signed segments before it
	start      int64    // file offset of the first record's header
	startSeq   uint64   // expected sequence number of the first entry
	startChain [32]byte // claimed chain head before the first entry
	startSig   [32]byte // digest of the previous signature record's payload
	payloads   [][]byte // raw entry payloads (sealed if the log is sealed)

	hasSig bool
	sigRaw []byte   // raw signature record payload
	sigSum [32]byte // its SHA-256
	sigOff int64    // file offset of the signature record's header
	end    int64    // file offset just past the signature record (commit point)

	res  segResult
	done chan struct{} // parallel driver only: closed once res is set
}

// segResult is the verdict on one segment.
type segResult struct {
	entries []*Entry
	err     error    // the first record that failed, nil if none did
	atSig   bool     // err was raised at the signature record, not an entry
	chain   [32]byte // chain head the signature record attests
	counter uint64   // counter it binds
	bytes   int64    // entry payload bytes, for telemetry and checkpoint cadence
}

// scanEnd is what the scanner learned about the stream beyond the dispatched
// segments; the verdict needs it to rank failures.
type scanEnd struct {
	// streamErr is a record-framing failure (bad magic, truncated record,
	// oversized record).
	streamErr error
	badMagic  bool
	// unknownErr is the first unknown-record-type error; it applies only
	// when everything dispatched before it verified.
	unknownErr error
	// totalSigs counts every signature record in the stream, including ones
	// after the scanner stopped dispatching.
	totalSigs int
}

// scanSegments frames the record stream and hands each signature-delimited
// segment to dispatch, in stream order, stopping early only when dispatch
// returns false or ctx is done. It always frames to the end of the stream,
// even past the point where it stops dispatching, because the verdict can
// depend on what follows a failure. base is the verified state the stream is
// read from: the empty log (magic expected first), or, when resumed, a
// checkpoint's commit point with r positioned at its offset.
func scanSegments(ctx context.Context, r io.Reader, base *totals, resumed bool, dispatch func(*segment) bool) (end scanEnd) {
	rr := recordReader{r: r, kind: &logStream, off: base.end}
	if !resumed {
		if err := rr.magic(); err != nil {
			end.streamErr, end.badMagic = err, true
			return end
		}
	}
	var cur *segment
	idx := 0
	nextSeq, nextChain, nextSig := base.seq, base.chain, base.sigSum
	open := func(at int64) *segment {
		if cur == nil {
			cur = &segment{index: idx, start: at, startSeq: nextSeq, startChain: nextChain, startSig: nextSig}
		}
		return cur
	}
	dispatching := true
	for ctx.Err() == nil {
		rec, err := rr.next()
		if err != nil {
			if err != io.EOF {
				end.streamErr = err
			}
			break
		}
		switch rec.typ {
		case recEntry:
			if dispatching {
				seg := open(rec.off)
				seg.payloads = append(seg.payloads, rec.payload)
				nextSeq++
			}
		case recSig:
			end.totalSigs++
			if !dispatching {
				continue
			}
			seg := open(rec.off)
			cur = nil
			seg.hasSig, seg.sigRaw, seg.sigOff, seg.end = true, rec.payload, rec.off, rr.off
			seg.sigSum = sha256.Sum256(rec.payload)
			// The next segment starts from the head this record claims and
			// must link to this record. If the record is too short to claim
			// a head it fails to parse, and nothing after the first failure
			// affects the verdict.
			copy(nextChain[:], rec.payload)
			nextSig = seg.sigSum
			idx++
			if !dispatch(seg) {
				return end
			}
		default:
			if end.unknownErr == nil {
				end.unknownErr = logStream.unknownType(rec.typ)
			}
			// Entries before the unknown record are judged before it is;
			// dispatch them as a trailing unsigned segment, then only frame.
			if dispatching && cur != nil && !dispatch(cur) {
				return end
			}
			dispatching = false
		}
	}
	if dispatching && cur != nil {
		dispatch(cur)
	}
	return end
}

// verifySegment runs the core over one segment from its claimed start: the
// expensive half of verification, safe to run concurrently across segments.
// firstSig is the ordinal of the scan's first signature record.
func verifySegment(seg *segment, opts *VerifyOptions, shard, firstSig int) segResult {
	v := chainVerifier{
		opts: opts, shard: shard, seq: seg.startSeq,
		chain: seg.startChain, sigHead: seg.startSig, sigs: firstSig + seg.index,
	}
	res := segResult{entries: make([]*Entry, 0, len(seg.payloads))}
	off := seg.start
	for _, raw := range seg.payloads {
		e, err := v.entry(raw, off)
		if err != nil {
			res.err = err
			return res
		}
		res.entries = append(res.entries, e)
		res.bytes += int64(len(raw))
		off += recordSize(raw)
	}
	if seg.hasSig {
		res.counter, res.err = v.sig(seg.sigRaw, seg.sigOff)
		res.atSig = res.err != nil
		res.chain = v.chain
	}
	return res
}
