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

// Sharded verification. A sharded log set is N shard files, each an
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
// rollback counters (the per-shard counters and the manifest counter), the
// same trust model as the single-file log's tail.

// ShardSet locates a log set on disk: either N shard files plus the
// manifest sidecar, or a single legacy log file.
type ShardSet struct {
	// Dir is the directory holding the set.
	Dir string
	// Name is the log-set name (file basenames derive from it).
	Name string
	// Shards is the number of shard files (1 for a single-file set).
	Shards int
	// Manifest is the sidecar path; empty for a single-file set.
	Manifest string
}

// Sharded reports whether the set carries an epoch-manifest sidecar.
func (ss *ShardSet) Sharded() bool { return ss.Manifest != "" }

// ShardPath is shard k's log file path.
func (ss *ShardSet) ShardPath(k int) string {
	if !ss.Sharded() {
		return filepath.Join(ss.Dir, ss.Name+".lseal")
	}
	return filepath.Join(ss.Dir, ShardName(ss.Name, k)+".lseal")
}

// FindShardSet locates the log set at a path: a log file is a single-file
// set; in a directory, a manifest sidecar identifies a sharded set (its shard
// files must be contiguous from shard 0), and without one exactly one .lseal
// file identifies a single-file set.
func FindShardSet(path string) (*ShardSet, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		return &ShardSet{Dir: filepath.Dir(path), Name: strings.TrimSuffix(filepath.Base(path), ".lseal"), Shards: 1}, nil
	}
	ents, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	var manifests, logs []string
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		switch {
		case strings.HasSuffix(e.Name(), ".manifest"):
			manifests = append(manifests, e.Name())
		case strings.HasSuffix(e.Name(), ".lseal"):
			logs = append(logs, e.Name())
		}
	}
	switch {
	case len(manifests) > 1:
		return nil, fmt.Errorf("audit: %s holds multiple log sets (%s)", path, strings.Join(manifests, ", "))
	case len(manifests) == 1:
		name := strings.TrimSuffix(manifests[0], ".manifest")
		ss := &ShardSet{Dir: path, Name: name, Manifest: filepath.Join(path, manifests[0])}
		for {
			if _, err := os.Stat(filepath.Join(path, ShardName(name, ss.Shards)+".lseal")); err != nil {
				break
			}
			ss.Shards++
		}
		if ss.Shards == 0 {
			return nil, fmt.Errorf("%w: manifest %s without shard files", ErrTampered, manifests[0])
		}
		return ss, nil
	case len(logs) == 1:
		return &ShardSet{Dir: path, Name: strings.TrimSuffix(logs[0], ".lseal"), Shards: 1}, nil
	case len(logs) == 0:
		return nil, fmt.Errorf("audit: no log files in %s", path)
	default:
		return nil, fmt.Errorf("audit: %d log files in %s but no manifest sidecar", len(logs), path)
	}
}

// VerifyPath verifies a log at a path that may be a single log file or a
// directory holding a sharded set, auto-detecting which. This is the
// recommended entry point; the per-file functions remain for callers that
// already know the layout. A cancelled or expired ctx stops every shard's
// pipeline and returns ctx.Err() instead of a verification verdict.
func VerifyPath(ctx context.Context, path string, opts StreamOptions) (*Report, error) {
	ss, err := FindShardSet(path)
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
// manifest sidecar against the shards' verified commit points.
func VerifySet(ctx context.Context, ss *ShardSet, opts StreamOptions) (*Report, error) {
	if opts.Resume != nil && ss.Shards > 1 {
		return nil, errors.New("audit: explicit Resume on a sharded set; use ResumeAuto")
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
	if ss.Sharded() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replay = replayRecords(ss, &opts)
		}()
	}
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
			if ss.Sharded() {
				return nil, fmt.Errorf("shard %d (%s): %w", k, filepath.Base(ss.ShardPath(k)), err)
			}
			return nil, err
		}
	}
	out := &Report{
		Sharded: ss.Sharded(),
		Shards:  results,
		Tables:  map[string]int{},
	}
	for _, r := range results {
		out.TotalEntries += r.TotalEntries
		out.TotalBatches += r.TotalBatches
		out.CommittedBytes += r.CommittedBytes
		out.Resumed = out.Resumed || r.Resumed
		for t, n := range r.Tables {
			out.Tables[t] += n
		}
	}
	if ss.Sharded() {
		if err := replay.judge(ss, &opts, points, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// verifyShard runs the streaming pipeline over one shard file, collecting
// its commit points and handling checkpoint/resume plumbing.
func verifyShard(ctx context.Context, ss *ShardSet, k, workers int, opts StreamOptions, cs *commitSet) (*StreamResult, error) {
	path := ss.ShardPath(k)
	sopts := opts
	sopts.Shard = k
	sopts.Workers = workers
	if ss.Sharded() {
		// Freshness is judged per shard against its own counter.
		sopts.Name = ShardName(ss.Name, k)
	} else if sopts.Name == "" {
		sopts.Name = ss.Name
	}
	ckptPath := path + ".ckpt"
	if opts.Checkpoint != nil {
		ccfg := *opts.Checkpoint
		if ccfg.Path != "" && !ss.Sharded() {
			ckptPath = ccfg.Path
		}
		ccfg.Path = ckptPath
		sopts.Checkpoint = &ccfg
	}
	if opts.ResumeAuto {
		if c, err := LoadCheckpoint(ckptPath); err == nil && c.Shard == k {
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
	// attest) is caught here, exactly like a single-file tail rollback.
	fresh := opts.VerifyOptions
	fresh.Name = ManifestCounterName(ss.Name)
	if err := checkFreshness(rp.Counter(), fresh); err != nil {
		return fmt.Errorf("manifest sidecar: %w", err)
	}
	return nil
}
