package audit

import (
	"context"
	"crypto/sha256"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"libseal/internal/telemetry"
)

// Parallel verification: the scanner (stream.go) runs as a goroutine, a
// worker pool runs the verifier core over its runs concurrently, and the
// merger (verifier.go) consumes their verdicts in file order, on the caller's
// goroutine: OnSegment runs there.

// Verification telemetry (audit.verify.*): segment/entry/byte throughput,
// per-segment and whole-run latency, and checkpoint/resume activity for
// the resumable CLI path.
var (
	mVerifyRuns        = telemetry.NewCounter("audit.verify.runs", "calls")
	mVerifyFailures    = telemetry.NewCounter("audit.verify.failures", "calls")
	mVerifySegments    = telemetry.NewCounter("audit.verify.segments", "segments")
	mVerifyEntries     = telemetry.NewCounter("audit.verify.entries", "entries")
	mVerifyBytes       = telemetry.NewCounter("audit.verify.bytes", "bytes")
	mVerifyWorkers     = telemetry.NewGauge("audit.verify.workers", "goroutines")
	mVerifyBlocks      = telemetry.NewGauge("audit.verify.blocks", "blocks")         // read, not yet folded
	mVerifyBlockAllocs = telemetry.NewCounter("audit.verify.block_allocs", "blocks") // the rest were recycled
	mVerifySegLatency  = telemetry.NewHistogram("audit.verify.segment.latency", "ns")
	mVerifyLatency     = telemetry.NewHistogram("audit.verify.latency", "ns")
	mVerifyCheckpoints = telemetry.NewCounter("audit.verify.checkpoints", "writes")
	mVerifyResumes     = telemetry.NewCounter("audit.verify.resumes", "calls")
	// ECDSA checks log verification performed (closing checks, checkpoint
	// saves and proofs, locate passes), and how many locate passes ran.
	mVerifySignatures = telemetry.NewCounter("audit.verify.signatures", "checks")
	mVerifyLocates    = telemetry.NewCounter("audit.verify.locates", "passes")
)

// SegmentInfo describes one committed (signature-closed, fully verified)
// segment, delivered to StreamOptions.OnSegment in file order.
//
// Segment delivery is provisional: the segment's hash chains have been
// checked, but the enclave signature that vouches for it is checked at a
// later commit point — the scan's last at the latest — and whole-log
// properties — counter freshness against the rollback group above all — are
// only decided once the scan finishes.
// Entries must not be trusted (acted on, exported, replayed) until
// VerifyPath returns a nil error; a log that streams plausible segments can
// still turn out rolled back or torn.
type SegmentInfo struct {
	// Shard is the ordinal of the shard this segment belongs to.
	Shard int
	// Index is the segment's ordinal within this scan, starting at 0.
	Index int
	// NumEntries is the number of entries the segment's signature covers.
	NumEntries int
	// Counter is the rollback-counter value the segment's signature attests.
	Counter uint64
	// EndSeq is the total number of verified entries through this segment
	// (checkpointed prefix included on a resumed scan).
	EndSeq uint64
	// Chain is the chain head the segment's signature record attests.
	Chain [32]byte
	// CommittedBytes is the verified prefix length through this segment.
	CommittedBytes int64

	batch *batch
}

// Entries returns the segment's verified entries. Verification walks an
// entry's bytes without building it, so they are decoded here, on the first
// call, from the block of the log the pipeline still holds: call it only
// during the callback, and only if the entries are wanted.
func (s SegmentInfo) Entries() []*Entry {
	b := s.batch
	if b == nil {
		return nil
	}
	for w := b.raw; len(b.entries) < b.n; {
		_, payload, size, _ := logStream.cut(w)
		e, _ := UnmarshalEntry(payload) // the walk that verified these bytes is the one that decodes them
		b.entries, w = append(b.entries, e), w[size:]
	}
	return b.entries
}

// StreamOptions extends VerifyOptions with the streaming pipeline's knobs.
type StreamOptions struct {
	VerifyOptions

	// Workers is the number of concurrent segment verifiers; 0 means
	// GOMAXPROCS. 1 still runs the pipeline (scanner and verifier overlap)
	// but verifies segments one at a time. Over a sharded set the budget is
	// divided among the shards, which verify concurrently: each gets
	// Workers/Shards, the first Workers%Shards shards one more, and never
	// fewer than one — so the set as a whole runs max(Workers, Shards).
	Workers int

	// OnSegment, when set, receives each committed segment in file order,
	// the shards' concurrently. It is the only way entries leave
	// verification (SegmentInfo.Entries): no driver keeps them, so memory
	// stays bounded regardless of log size. Returning an error aborts the
	// scan with that error.
	//
	// Deliveries are provisional until the verify call returns nil: the
	// whole-log verdict (counter freshness in particular) is not known
	// yet, so a callback must buffer or be prepared to discard its effects
	// if verification ultimately fails. See SegmentInfo. A shard whose
	// resumed scan fails (ResumeAuto) is verified again cold, its segments
	// delivered again from Index 0.
	OnSegment func(SegmentInfo) error

	// Checkpoint, when set, persists resumable progress as segments commit
	// to each shard file's sidecar, <shard file>.ckpt, atomically replaced
	// on each write.
	Checkpoint *CheckpointConfig

	// ResumeAuto loads each shard's own checkpoint sidecar and resumes from
	// it when the shard file authenticates it (Checkpoint.matchFile) and
	// the set's manifests can vouch for it: one attests the shard at the
	// checkpoint's Seq or past it, and none another state at that Seq. A
	// shard whose sidecar is missing, stale or unattested is verified cold
	// instead of failing. The manifest replay then holds the resume to its
	// word: the attested state must be the checkpoint or a point the
	// resumed scan reached (DESIGN.md §14).
	ResumeAuto bool
}

// StreamResult is one shard's verification outcome. Batches and MaxBatch
// cover what this scan itself verified; the Total fields and Tables fold in
// the checkpointed prefix of a resumed scan, and equal them on a cold one.
type StreamResult struct {
	// Counter is the rollback-counter value of the verified signature.
	Counter uint64
	// CommittedBytes is the length of the verified file prefix. With
	// RecoverTruncated, bytes past it are crash debris and can be cut off.
	CommittedBytes int64
	// Batches is the number of signature records (commit points) this scan
	// verified, MaxBatch the most entries one of them covers.
	Batches, MaxBatch int
	// SigHead is the SHA-256 of the verified signature record's payload — the
	// link the next signature record appended to the file must carry — and
	// Chain the head that record attests; both zero with no such record.
	SigHead, Chain [32]byte
	// TotalEntries / TotalBatches / TotalMaxBatch describe the whole log:
	// the checkpointed prefix plus this scan.
	TotalEntries, TotalBatches, TotalMaxBatch int
	// Tables counts verified entries per table across the whole log.
	Tables map[string]int
	// Resumed reports whether the scan started from a checkpoint.
	Resumed bool
}

// verifyStream runs the parallel segmented verification pipeline over one
// shard's record stream (at names the shard), from the empty log or, with
// resume, from that checkpoint's commit point with r positioned at its
// offset — a checkpoint the caller has authenticated against the file and
// the set's manifests can vouch for (verifyShard). A cancelled or
// expired ctx stops the pipeline and returns ctx.Err() instead of a
// verification verdict.
func verifyStream(parent context.Context, r logSource, opts *StreamOptions, at shardRef, resume *Checkpoint) (res *StreamResult, err error) {
	mVerifyRuns.Inc()
	defer func(start time.Time) {
		mVerifyLatency.Observe(time.Since(start))
		if err != nil {
			mVerifyFailures.Inc()
		}
	}(time.Now())
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	led, err := newLedger(resume)
	if err != nil {
		return nil, err
	}
	if led.resumed {
		mVerifyResumes.Inc()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	// order bounds the in-flight window (read, not yet folded) at twice the
	// workers, the one the scanner hands on next included. With the one it
	// reads into, the run being folded and the one whose last batch is held,
	// that is 2×workers+3 runs, the size of the pool they are recycled
	// through.
	m := newMerger(opts, at, r, led, make(runPool, 2*workers+3))
	m.stop = ctx.Done()
	defer m.release()
	work := make(chan *run, workers)
	order := make(chan *run, 2*workers-1)

	// Once the merger sees the first in-order failure the verdict is decided
	// but for what follows it structurally, which the scanner still frames:
	// the flag lets workers hand runs back unverified.
	var skipVerify atomic.Bool

	var wg sync.WaitGroup
	mVerifyWorkers.Add(int64(workers))
	defer mVerifyWorkers.Add(-int64(workers))
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			core := chainVerifier{shard: at.k, batch: sha256.New(), names: map[string]string{}}
			for r := range work {
				if ctx.Err() == nil && !skipVerify.Load() {
					t0 := time.Now()
					verifyRun(r, &core, m.led.base.batches)
					mVerifySegLatency.Observe(time.Since(t0))
				}
				r.done <- struct{}{}
			}
		}()
	}
	var end scanEnd
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		defer close(work)
		defer close(order)
		// Same runs, same order, on both channels; order is what the merger
		// consumes.
		end = scanRuns(ctx, r, &m.led.base, m.led.resumed, at.k, m.pool, func(r *run) bool {
			mVerifyBlocks.Add(1)
			for _, ch := range []chan *run{work, order} {
				select {
				case ch <- r:
				case <-ctx.Done():
					mVerifyBlocks.Add(-1)
					return false
				}
			}
			return true
		})
	}()

	for r := range order {
		<-r.done
		// A worker that saw ctx done left the run unverified.
		ok := ctx.Err() == nil && m.fold(r)
		mVerifyBlocks.Add(-1)
		if !ok {
			skipVerify.Store(true)
			break
		}
		m.retire(r)
	}
	if m.cbErr != nil {
		// OnSegment asked to abort: stop the scanner rather than let it run
		// to the end of the stream.
		cancel()
	}
	// The verdict can depend on the whole structural scan (strict-mode
	// truncation preempts everything; a tolerant tear must look for later
	// signature records), so wait for the scanner even after a failure.
	for r := range order {
		<-r.done
		mVerifyBlocks.Add(-1)
		m.pool.put(r) // never folded: nothing reads it
	}
	<-scanDone
	wg.Wait()
	if m.cbErr != nil {
		return nil, m.cbErr
	}
	if err := parent.Err(); err != nil {
		// Caller cancellation is not a verification verdict: a partial scan
		// must never be reported as OK or as tampering.
		return nil, err
	}
	return m.finish(end)
}
