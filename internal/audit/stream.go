package audit

import (
	"context"
	"crypto/sha256"
	"io"
	"sync"
)

// Run-wise log scanning. Every signature record is a commit point carrying
// the chain head it attests, which makes signature records natural cut
// points: a sequential scanner reads the stream a block at a time and hands
// on each block's whole batches as one run, with the run's *claimed* starting
// head (the one the signature record before it attests) and the digest of that
// record, which the run's first signature record must link to. Runs verify
// independently: if run k verifies, its claimed end head is the true one, so
// run k+1's claimed start is trustworthy by induction.
//
// A block's open batch is carried to the head of the next, and a block with
// no signature record in it grows until one arrives: a run is whole batches,
// contiguous, aliased downstream until it goes back to the scan's runPool
// (DESIGN.md §13). The scanner only frames; the workers hash and walk, the
// merger runs the ECDSA checks.

// scanBlock is the scanner's block size; only tests write it, to put a block
// boundary at every byte of an image.
var scanBlock = blockSize

// run is the unit of hand-off from the scanner: consecutive whole batches and,
// for the last run of a stream only, the unsigned entries after them.
type run struct {
	index      int      // signature records in the scan before this run
	start      int64    // stream offset of data[0]
	startSeq   uint64   // expected sequence number of the first entry
	startChain [32]byte // claimed chain head before the first entry
	startSig   [32]byte // digest of the previous signature record's payload
	data       []byte   // the records, aliasing block
	block      []byte   // the scanner's block data was cut from, whole
	sigAt      []int    // where in data each signature record's header lies, as the scanner framed them

	// The verdict, up to the first record that failed.
	batches []batch
	spans   []tableSpan   // the batches' entries by table, back to back
	open    int           // unsigned entries after the last batch
	err     error         // the first record that failed, nil if none did
	atSig   bool          // err was raised at a signature record, not an entry
	done    chan struct{} // receives once the verdict is in
}

// runPool is a scan's free list of runs, each keeping its block, slices and
// channel, as large as its in-flight window: the merger hands a run back once
// nothing aliases its block (retire), the scanner reads into it again. It is
// stocked from idleRuns and hands its runs back there when the scan is over
// (release), so that a scan allocates no block another has left idle.
type runPool chan *run

// idleRuns holds the runs of scans that are over, for the next: empty memory,
// not a cache. A run is put there zeroed, its block and slices to their
// capacity, so nothing one scan read, verified or decided — no byte, head or
// verdict — reaches another; the scan saves the allocations, not the work.
var idleRuns sync.Pool

func (p runPool) get() *run {
	var r *run
	select {
	case r = <-p:
	default:
		if r, _ = idleRuns.Get().(*run); r == nil {
			r = &run{done: make(chan struct{}, 1)}
		}
	}
	r.sigAt = r.sigAt[:0]
	return r
}

func (p runPool) put(r *run) {
	select {
	case p <- r:
	default:
	}
}

// release ends the scan's use of its runs, the pool's and last (if not nil):
// each is zeroed and put in idleRuns. Nothing may alias their blocks any
// more, and nothing else may use the pool.
func (p runPool) release(last *run) {
	if last != nil {
		p.put(last)
	}
	for len(p) > 0 {
		r := <-p
		clear(r.block[:cap(r.block)])
		clear(r.batches[:cap(r.batches)])
		clear(r.spans[:cap(r.spans)])
		clear(r.sigAt[:cap(r.sigAt)])
		*r = run{block: r.block[:0], batches: r.batches[:0], spans: r.spans[:0], sigAt: r.sigAt[:0], done: r.done}
		idleRuns.Put(r)
	}
}

// batch is one verified, signature-closed batch of a run.
type batch struct {
	commitPoint
	raw     []byte      // its entry records, aliasing the block
	sig     []byte      // its signature record's payload, likewise
	n       int         // entries
	entries []*Entry    // decoded by SegmentInfo.Entries, on its first call
	tables  []tableSpan // the entries by table
}

// tableSpan counts consecutive entries of one table.
type tableSpan struct {
	table string
	n     int
}

// scanEnd is what the scanner learned about the stream beyond the dispatched
// runs; the verdict needs it to rank failures.
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

// scanRuns frames the record stream and hands each block's run to dispatch,
// in stream order, stopping early only when dispatch returns false or ctx is
// done (polled once per block). It always frames to the end of the stream,
// even past the point where it stops dispatching, because the verdict can
// depend on what follows a failure. base is the verified state the stream is
// read from: the empty log (magic expected first), or, when resumed, a
// checkpoint's commit point with r positioned at its offset; shard names the
// shard in the errors. Runs come from pool.
func scanRuns(ctx context.Context, r io.Reader, base *totals, resumed bool, shard int, pool runPool, dispatch func(*run) bool) (end scanEnd) {
	rr := recordReader{r: r, kind: &logStream, size: scanBlock, off: base.end}
	// cur is the run the block being read will be handed with: the scanner
	// reads into its block, or into a larger one when a batch outgrows it.
	// handed: a run aliases the current block.
	cur, handed := pool.get(), false
	rr.spare = cur.block
	defer func() {
		if !handed {
			cur.block = rr.buf // no run aliases it
		}
		pool.put(cur)
	}()
	if !resumed {
		if err := rr.magic(); err != nil {
			end.streamErr, end.badMagic = err, true
			return end
		}
	}
	// next is where the next run starts, from its first byte in the block;
	// sigEnd is just past the last signature record framed (lastSig its
	// payload), seq counts the entries up to it and open those after it.
	next := run{start: rr.off, startSeq: base.seq, startChain: base.chain, startSig: base.sigSum}
	from, sigEnd, seq, open := rr.pos, rr.pos, base.seq, 0
	var lastSig []byte
	flush := func(to int) bool {
		r := cur
		batches, spans, sigAt, done := r.batches[:0], r.spans[:0], r.sigAt, r.done
		*r = next
		r.data, r.block, r.batches, r.spans, r.sigAt, r.done, handed = rr.buf[from:to], rr.buf, batches, spans, sigAt, done, true
		cur = pool.get()
		if rr.spare != nil {
			cur.block = rr.spare // a block no run aliases, left by a batch longer than a block
		}
		rr.spare = cur.block
		// The next run starts from the head its predecessor's last signature
		// record claims and must link to that record. If the record is too
		// short to claim a head it fails to parse, and nothing after the
		// first failure affects the verdict.
		next = run{index: end.totalSigs, start: r.start + int64(to-from), startSeq: seq, startSig: sha256.Sum256(lastSig)}
		copy(next.startChain[:], lastSig)
		from = to
		return dispatch(r)
	}
	dispatching := true
	for {
		rec, ok, err := rr.cut()
		if err != nil {
			if fe, framing := err.(*frameError); framing {
				end.streamErr = fe.at(shard, rr.off, base.batches+end.totalSigs, open)
			}
			break
		}
		if !ok {
			// The window is spent. The whole batches in it go to a worker; the
			// open batch and the partial record move to the next block.
			keep := rr.pos
			if dispatching {
				if sigEnd > from && !flush(sigEnd) {
					return end
				}
				keep = from
			}
			if ctx.Err() != nil {
				return end
			}
			old := rr.buf
			rr.fill(keep)
			if cur.block = rr.buf; !handed {
				rr.spare = old // no run aliases it
			}
			from, sigEnd, handed = 0, 0, false
			continue
		}
		switch rec.typ {
		case recEntry:
			open++
		case recSig:
			end.totalSigs++
			seq, open = seq+uint64(open), 0
			sigEnd, lastSig = rr.pos, rec.payload
			if dispatching {
				cur.sigAt = append(cur.sigAt, int(rec.off-next.start))
			}
		default:
			if end.unknownErr == nil {
				end.unknownErr = logStream.unknownType(rec.typ).at(shard, rec.off, base.batches+end.totalSigs, open)
			}
			// Entries before the unknown record are judged before it is: they
			// end the last run, and from here the scanner only frames.
			hdr := rr.pos - 5 - len(rec.payload)
			if dispatching && hdr > from && !flush(hdr) {
				return end
			}
			dispatching = false
		}
	}
	if dispatching && rr.pos > from {
		flush(rr.pos)
	}
	return end
}

// verifyRun runs the core over one run from its claimed start: the expensive
// half of verification, safe to run concurrently across runs on cores of
// their own. v is the worker's core; sigs is the ordinal of the scan's first
// signature record. Each batch is hashed in one span, where it lies in the
// block, and then its entry records are checked one by one, out of the cache
// the hash filled.
func verifyRun(r *run, v *chainVerifier, sigs int) {
	v.seq, v.chain, v.sigHead, v.sigs = r.startSeq, r.startChain, r.startSig, sigs+r.index
	v.inBatch, v.hashing, v.tables = 0, false, v.tables[:0]
	pos, off := 0, r.start // the next record's place in data and in the stream
	// walk checks the entry records from pos up to end; the scanner framed them.
	walk := func(end int) error {
		for pos < end {
			_, _, size, _ := logStream.cut(r.data[pos:])
			if err := v.entry(r.data[pos:pos+size], off); err != nil {
				return err
			}
			pos, off = pos+size, off+int64(size)
		}
		return nil
	}
	for _, at := range r.sigAt {
		first := pos
		v.span(r.data[first:at])
		if r.err = walk(at); r.err != nil {
			return
		}
		_, payload, size, _ := logStream.cut(r.data[at:])
		n := v.inBatch
		counter, tables, err := v.sig(payload, off)
		if err != nil {
			r.err, r.atSig = err, true
			return
		}
		r.spans = append(r.spans, tables...)
		r.batches = append(r.batches, batch{
			commitPoint: commitPoint{end: off + int64(size), chain: v.chain, counter: counter, sigOff: off, sigSum: v.sigHead},
			raw:         r.data[first:at], sig: payload, n: n, tables: r.spans[len(r.spans)-len(tables):],
		})
		pos, off = at+size, off+int64(size)
	}
	r.err = walk(len(r.data))
	r.open = v.inBatch
}
