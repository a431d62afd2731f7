package audit

import (
	"bytes"
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

// collect is an OnSegment that records each segment's commit point and then
// hands it to inner, if any.
func (cs *commitSet) collect(inner func(SegmentInfo) error) func(SegmentInfo) error {
	return func(si SegmentInfo) error {
		cs.pts = append(cs.pts, ShardState{Seq: si.EndSeq, Counter: si.Counter, Chain: si.Chain})
		if inner != nil {
			return inner(si)
		}
		return nil
	}
}

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
// Resume is refused. A compaction's land that a crash interrupted and that
// recovery completes is judged as completed (setImages).
func VerifySet(ctx context.Context, ss *ShardSet, opts StreamOptions) (*Report, error) {
	if opts.Resume != nil {
		return nil, errors.New("audit: explicit Resume on a log set; use ResumeAuto")
	}
	sidecar, err := os.ReadFile(ss.Manifest)
	if err != nil {
		return nil, fmt.Errorf("%w: manifest sidecar: %v", ErrTampered, err)
	}
	paths, sidecar, land := setImages(ss, sidecar, os.ReadFile, &opts, func(k int, img []byte, onSegment func(SegmentInfo) error) (*StreamResult, error) {
		sopts := shardOptions(ss, opts, k)
		sopts.OnSegment = onSegment
		return verifyInline(bytes.NewReader(img), &sopts)
	})
	if land {
		// No checkpoint was taken of a staged image, and none is left beside one.
		opts.ResumeAuto, opts.Checkpoint = false, nil
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
		replay = replayRecords(ss, sidecar, &opts)
	}()
	for k := 0; k < ss.Shards; k++ {
		points[k] = newCommitSet()
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			results[k], errs[k] = verifyShard(ctx, paths[k], shardWorkers(totalWorkers, ss.Shards, k), shardOptions(ss, opts, k), points[k])
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

// shardOptions is opts as shard k of ss is verified with: stamped with the
// shard and judged against the shard's own counter.
func shardOptions(ss *ShardSet, opts StreamOptions, k int) StreamOptions {
	opts.Shard, opts.Name = k, ShardName(ss.Name, k)
	return opts
}

// verifyShard runs the streaming pipeline over one shard's image at path,
// collecting its commit points and resuming from the image's checkpoint
// sidecar (<path>.ckpt, which VerifyFileStream writes), whose freshness is
// judged against the shard's own counter.
func verifyShard(ctx context.Context, path string, workers int, sopts StreamOptions, cs *commitSet) (*StreamResult, error) {
	sopts.Workers = workers
	if sopts.ResumeAuto {
		if c, err := LoadCheckpoint(path + ".ckpt"); err == nil && c.Shard == sopts.Shard {
			sopts.Resume = c
		}
	}
	sopts.OnSegment = cs.collect(sopts.OnSegment)
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

// stagedPath is where a record file's replacement image is staged (stage)
// before it is renamed over the file (install).
func stagedPath(path string) string { return path + ".tmp" }

// A compaction lands its images in one order (ShardedLog.land): every image
// is staged beside its file, then the shards' are renamed over theirs, and
// only then the sidecar's. A process killed between those renames leaves
// shard images that the old sidecar's manifests do not attest — a rollback,
// read literally — beside the staged sidecar image that does. Such a land is
// completed by recovery, and judged by the verifier as recovery leaves it,
// when the staged sidecar image is one manifest that verifies, its epoch
// follows the sidecar's last, and every state it attests is a commit point of
// its shard once the shard's staged image, if one is on disk, is installed.
// Any other staged image is crash debris.

// shardScan verifies img as shard k's image on the caller's goroutine,
// handing each committed segment to onSegment.
type shardScan func(k int, img []byte, onSegment func(SegmentInfo) error) (*StreamResult, error)

// setImages returns what the set is judged from, given its sidecar's bytes:
// each shard's image path and the sidecar image — the set's files, or the
// staged images of an interrupted land that recovery completes (land). read
// reads a file, failing on a missing one.
func setImages(ss *ShardSet, sidecar []byte, read func(string) ([]byte, error), opts *StreamOptions, scan shardScan) (paths []string, image []byte, land bool) {
	paths = make([]string, ss.Shards)
	for k := range paths {
		paths[k] = ss.ShardPath(k)
	}
	staged, err := read(stagedPath(ss.Manifest))
	if err != nil {
		return paths, sidecar, false
	}
	ms, err := readManifests(staged, false)
	if err != nil || len(ms) != 1 {
		return paths, sidecar, false
	}
	rp := replayRecords(ss, sidecar, opts)
	if rp.err != nil || ms[0].Epoch != rp.Epoch()+1 || rp.Verify(ms[0]) != nil {
		return paths, sidecar, false
	}
	landed := slices.Clone(paths)
	for k, path := range paths {
		img, err := read(stagedPath(path))
		if err == nil {
			landed[k] = stagedPath(path)
		} else if img, err = read(path); err != nil {
			return paths, sidecar, false
		}
		cs := newCommitSet()
		if _, err := scan(k, img, cs.collect(nil)); err != nil || !cs.has(ms[0].Shards[k]) {
			return paths, sidecar, false
		}
	}
	return landed, staged, true
}

// manifestReplay is the half of the manifest replay that reads no shard, run
// while the shards scan: each record's own checks, on the replayer the live
// mirror uses. ms are the records that passed, err what stopped it.
type manifestReplay struct {
	ManifestReplayer
	ms  []*Manifest
	err error
}

// replayRecords replays the sidecar's bytes, raw.
func replayRecords(ss *ShardSet, raw []byte, opts *StreamOptions) *manifestReplay {
	rp := &manifestReplay{ManifestReplayer: ManifestReplayer{Name: ss.Name, Pub: opts.Pub, Shards: ss.Shards}}
	var err error
	if rp.ms, err = readManifests(raw, opts.RecoverTruncated); err != nil {
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
