package audit

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
)

// Set verification. Every persisted log is a set: N ≥ 1 shard files, each an
// ordinary audit log verified by the single-file pipeline, plus the epoch
// manifest sidecar. The driver below verifies the shards in parallel, collects
// every shard's verified commit points, and replays the sidecar against them:
// each manifest's signature must verify, its epochs strictly increase, its
// counters never decrease (checked while the shards scan), and every shard
// state it attests must be a commit point that shard's verification produced.
// A shard rolled back to an earlier signed prefix still passes its own checks,
// but loses the commit points later manifests bound, and the replay fails
// with ErrBadCounter naming it — evidence entirely in the files.
//
// What the manifests cannot prove offline is their own tail: discarding the
// sidecar records after epoch k (or the shards' records after the states
// epoch k attests) is only caught by the freshness checks against the live
// rollback counters (the per-shard counters and the manifest counter).
//
// The layout is the writer's one, whatever the shard count, so the verifier
// never infers it from the files it is judging: a directory is a set only if
// its manifest says so, and shard files without one are tampering.

// ShardSet locates a log set on disk: N ≥ 1 shard files and the manifest
// sidecar, side by side in one directory.
type ShardSet struct {
	// Dir is the directory holding the set.
	Dir string
	// Name is the log-set name (file basenames derive from it).
	Name string
	// Shards is the number of shard files.
	Shards int
	// Manifest is the sidecar path.
	Manifest string
}

// ShardPath is shard k's log file path.
func (ss *ShardSet) ShardPath(k int) string {
	return filepath.Join(ss.Dir, ShardName(ss.Name, k)+".lseal")
}

// FindShardSet locates the log set in a directory: its one manifest sidecar
// names the set, whose shard files are those contiguous from shard 0. Shard
// files with no manifest beside them, or a manifest with no shard 0, are
// ErrTampered — the writer always leaves both.
func FindShardSet(dir string) (*ShardSet, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("audit: log set: %w", err)
	}
	var manifests []string
	logs := 0
	for _, e := range ents {
		switch {
		case e.IsDir():
		case strings.HasSuffix(e.Name(), ".manifest"):
			manifests = append(manifests, e.Name())
		case strings.HasSuffix(e.Name(), ".lseal"):
			logs++
		}
	}
	switch {
	case len(manifests) > 1:
		return nil, fmt.Errorf("audit: %s holds multiple log sets (%s)", dir, strings.Join(manifests, ", "))
	case len(manifests) == 0 && logs > 0:
		return nil, fmt.Errorf("%w: %d log files in %s but no manifest sidecar", ErrTampered, logs, dir)
	case len(manifests) == 0:
		return nil, fmt.Errorf("audit: no log set in %s", dir)
	}
	name := strings.TrimSuffix(manifests[0], ".manifest")
	ss := &ShardSet{Dir: dir, Name: name, Manifest: filepath.Join(dir, manifests[0])}
	for {
		if _, err := os.Stat(ss.ShardPath(ss.Shards)); err != nil {
			break
		}
		ss.Shards++
	}
	if ss.Shards == 0 {
		return nil, fmt.Errorf("%w: manifest %s without shard files", ErrTampered, manifests[0])
	}
	return ss, nil
}

// VerifyPath verifies the log set in a directory (FindShardSet, VerifySet).
// This is the recommended entry point; the per-file functions remain the
// pipeline every shard runs. A cancelled or expired ctx stops every shard's
// pipeline and returns ctx.Err() instead of a verification verdict.
func VerifyPath(ctx context.Context, dir string, opts StreamOptions) (*Report, error) {
	ss, err := FindShardSet(dir)
	if err != nil {
		return nil, err
	}
	return VerifySet(ctx, ss, opts)
}

// commitSet is one shard's verified commit points — the (entries, chain
// head, counter) triples its signature records attest, the unit of the
// manifest cross-check. It is filled by that shard's merger goroutine
// (sequentially, in stream order: Seq never decreases) and read only after
// the shard's verification returns.
type commitSet struct {
	base ShardState   // a resumed scan's checkpoint, vouching for itself and every point below its Seq
	pts  []ShardState // the empty log — the creation manifest binds it — then every point scanned
}

func newCommitSet() *commitSet { return &commitSet{pts: []ShardState{{}}} }

// has reports whether a manifest-attested state is consistent with the
// shard's verified log: an enumerated commit point, or one inside the
// checkpointed prefix of a resumed scan (that prefix was verified — and its
// manifests replayed — by the run that wrote the checkpoint).
func (cs *commitSet) has(st ShardState) bool {
	if st.Seq < cs.base.Seq || st == cs.base {
		return true
	}
	i, _ := slices.BinarySearchFunc(cs.pts, st.Seq, func(p ShardState, seq uint64) int { return cmp.Compare(p.Seq, seq) })
	for ; i < len(cs.pts) && cs.pts[i].Seq == st.Seq; i++ {
		if cs.pts[i] == st {
			return true
		}
	}
	return false
}

// shardWorkers is shard k's share of a worker budget split over a set.
func shardWorkers(workers, shards, k int) int {
	n := workers / shards
	if k < workers%shards {
		n++
	}
	return max(n, 1)
}

// VerifySet verifies every shard of the set in parallel and replays the
// manifest sidecar against the shards' verified commit points. Each shard
// resumes only from its own checkpoint sidecar (ResumeAuto); an explicit
// Resume is refused.
func VerifySet(ctx context.Context, ss *ShardSet, opts StreamOptions) (*Report, error) {
	if opts.Resume != nil {
		return nil, errors.New("audit: explicit Resume on a log set; use ResumeAuto")
	}
	totalWorkers := opts.Workers
	if totalWorkers <= 0 {
		totalWorkers = runtime.GOMAXPROCS(0)
	}
	results := make([]*StreamResult, ss.Shards)
	errs := make([]error, ss.Shards)
	points := make([]*commitSet, ss.Shards)
	var wg sync.WaitGroup
	var replay *manifestReplay
	wg.Add(1)
	go func() {
		defer wg.Done()
		replay = replayRecords(ss, &opts)
	}()
	for k := 0; k < ss.Shards; k++ {
		points[k] = newCommitSet()
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			results[k], errs[k] = verifyShard(ctx, ss, k, shardWorkers(totalWorkers, ss.Shards, k), opts, points[k])
		}(k)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d (%s): %w", k, filepath.Base(ss.ShardPath(k)), err)
		}
	}
	out := &Report{Shards: results, Tables: map[string]int{}}
	for _, r := range results {
		out.TotalEntries += r.TotalEntries
		out.TotalBatches += r.TotalBatches
		out.CommittedBytes += r.CommittedBytes
		out.Resumed = out.Resumed || r.Resumed
		for t, n := range r.Tables {
			out.Tables[t] += n
		}
	}
	if err := replay.judge(ss, &opts, points, out); err != nil {
		return nil, err
	}
	return out, nil
}

// verifyShard runs the streaming pipeline over one shard file, collecting
// its commit points and resuming from the shard's checkpoint sidecar
// (<shard file>.ckpt, which VerifyFileStream writes), whose freshness is
// judged against the shard's own counter.
func verifyShard(ctx context.Context, ss *ShardSet, k, workers int, opts StreamOptions, cs *commitSet) (*StreamResult, error) {
	path := ss.ShardPath(k)
	sopts := opts
	sopts.Shard = k
	sopts.Workers = workers
	sopts.Name = ShardName(ss.Name, k)
	if opts.ResumeAuto {
		if c, err := LoadCheckpoint(path + ".ckpt"); err == nil && c.Shard == k {
			sopts.Resume = c
		}
	}
	inner := opts.OnSegment
	sopts.OnSegment = func(si SegmentInfo) error {
		cs.pts = append(cs.pts, ShardState{Seq: si.EndSeq, Counter: si.Counter, Chain: si.Chain})
		if inner != nil {
			return inner(si)
		}
		return nil
	}
	res, err := VerifyFileStream(ctx, path, sopts)
	if sopts.Resume != nil && errors.Is(err, ErrCheckpointStale) {
		// The checkpoint no longer matches the file (trimmed or rewritten
		// since): cold-scan for the true verdict.
		sopts.Resume = nil
		res, err = VerifyFileStream(ctx, path, sopts)
	}
	if c := sopts.Resume; c != nil && err == nil {
		// Only a checkpoint the file itself authenticated vouches for the
		// prefix before it; a sidecar that turned out stale must not leave
		// a commit point behind for the manifest replay to find.
		chain, _ := c.chainHead() // the scan that just succeeded decoded it
		cs.base = ShardState{Seq: c.Seq, Counter: c.Counter, Chain: chain}
	}
	return res, err
}

// manifestReplay is the half of the manifest replay that reads no shard, run
// while the shards scan: each record's own checks, on the replayer the live
// mirror uses. ms are the records that passed, err what stopped it.
type manifestReplay struct {
	ManifestReplayer
	ms  []*Manifest
	err error
}

func replayRecords(ss *ShardSet, opts *StreamOptions) *manifestReplay {
	rp := &manifestReplay{ManifestReplayer: ManifestReplayer{Name: ss.Name, Pub: opts.Pub, Shards: ss.Shards}}
	raw, err := os.ReadFile(ss.Manifest)
	if err != nil {
		rp.err = fmt.Errorf("%w: manifest sidecar: %v", ErrTampered, err)
	} else if rp.ms, err = readManifests(raw, opts.RecoverTruncated); err != nil {
		rp.err = fmt.Errorf("manifest sidecar: %w", err)
	} else if len(rp.ms) == 0 && !opts.RecoverTruncated {
		// The writer creates the sidecar with an initial manifest; an empty
		// one means its records were stripped.
		rp.err = fmt.Errorf("%w: manifest sidecar holds no manifests", ErrTampered)
	}
	for i := 0; rp.err == nil && i < len(rp.ms); i++ {
		if rp.err = rp.Verify(rp.ms[i]); rp.err != nil {
			rp.ms = rp.ms[:i]
		}
	}
	return rp
}

// judge completes the replay against the shards' commit points, with a
// record-by-record replay's verdict: each manifest in order checked on its
// own, then for membership; then the sidecar's freshness.
func (rp *manifestReplay) judge(ss *ShardSet, opts *StreamOptions, points []*commitSet, out *Report) error {
	for _, m := range rp.ms {
		for k, st := range m.Shards {
			if !points[k].has(st) {
				return fmt.Errorf(
					"%w: epoch manifest %d attests shard %d at seq=%d counter=%d, but the shard log holds no such commit point — shard rolled back",
					ErrBadCounter, m.Epoch, k, st.Seq, st.Counter)
			}
		}
	}
	if rp.err != nil {
		return rp.err
	}
	out.Manifests, out.Epoch = len(rp.ms), rp.Epoch()
	// The sidecar's own tail is guarded by the live manifest counter: a
	// provider that discards recent manifests (and the shard records they
	// attest) is caught here, exactly like a shard's own tail rollback.
	fresh := opts.VerifyOptions
	fresh.Name = ManifestCounterName(ss.Name)
	if err := checkFreshness(rp.Counter(), fresh); err != nil {
		return fmt.Errorf("manifest sidecar: %w", err)
	}
	return nil
}
