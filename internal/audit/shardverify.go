package audit

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
)

// Set verification. Every persisted log is a set: N ≥ 1 shard files, each an
// ordinary audit log verified by the streaming pipeline, plus the epoch
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

// shardSet locates a log set on disk: N ≥ 1 shard files and the manifest
// sidecar, side by side in one directory.
type shardSet struct {
	dir      string // the directory holding the set
	name     string // the log-set name, which the file basenames derive from
	shards   int    // the number of shard files
	manifest string // the sidecar's path
}

// shardPath is shard k's log file path.
func (ss *shardSet) shardPath(k int) string {
	return filepath.Join(ss.dir, ShardName(ss.name, k)+".lseal")
}

// ref is shard k as its driver is told of it, with no checkpoint sidecar.
func (ss *shardSet) ref(k int) shardRef {
	return shardRef{k: k, counter: ShardName(ss.name, k)}
}

// findShardSet locates the log set in a directory: its one manifest sidecar
// names the set, whose shard files are those contiguous from shard 0. Shard
// files with no manifest beside them, or a manifest with no shard 0, are
// ErrTampered — the writer always leaves both.
func findShardSet(dir string) (*shardSet, error) {
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
	ss := &shardSet{dir: dir, name: name, manifest: filepath.Join(dir, manifests[0])}
	for {
		if _, err := os.Stat(ss.shardPath(ss.shards)); err != nil {
			break
		}
		ss.shards++
	}
	if ss.shards == 0 {
		return nil, fmt.Errorf("%w: manifest %s without shard files", ErrTampered, manifests[0])
	}
	return ss, nil
}

// VerifyPath verifies the log set in a directory: every shard in parallel
// with the streaming pipeline, then the manifest sidecar replayed against
// the shards' verified commit points. It is the one way in for a one-shot
// scan. A compaction's land that a crash interrupted and that recovery
// completes is judged as completed (setImages). A cancelled or expired ctx
// stops every shard's pipeline and returns ctx.Err() instead of a
// verification verdict.
func VerifyPath(ctx context.Context, dir string, opts StreamOptions) (*Report, error) {
	ss, err := findShardSet(dir)
	if err != nil {
		return nil, err
	}
	sidecar, err := os.ReadFile(ss.manifest)
	if err != nil {
		return nil, fmt.Errorf("%w: manifest sidecar: %v", ErrTampered, err)
	}
	paths, sidecar, land := setImages(ss, sidecar, os.ReadFile, &opts, func(k int, img []byte, onSegment func(SegmentInfo) error) (*StreamResult, error) {
		sopts := opts
		sopts.OnSegment = onSegment
		return verifyInline(bytes.NewReader(img), &sopts, ss.ref(k))
	})
	if land {
		// No checkpoint was taken of a staged image, and none is left beside one.
		opts.ResumeAuto, opts.Checkpoint = false, nil
	}
	ms, parseErr := readManifests(sidecar, opts.RecoverTruncated)
	claims := attestedStates(ms, ss.shards)
	totalWorkers := opts.Workers
	if totalWorkers <= 0 {
		totalWorkers = runtime.GOMAXPROCS(0)
	}
	results := make([]*StreamResult, ss.shards)
	errs := make([]error, ss.shards)
	points := make([]*commitSet, ss.shards)
	var wg sync.WaitGroup
	var replay *manifestReplay
	wg.Add(1)
	go func() {
		defer wg.Done()
		replay = replayRecords(ss, ms, parseErr, &opts)
	}()
	for k := 0; k < ss.shards; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sopts := opts
			sopts.Workers = shardWorkers(totalWorkers, ss.shards, k)
			results[k], points[k], errs[k] = verifyShard(ctx, paths[k], sopts, ss.ref(k), claims[k])
		}(k)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d (%s): %w", k, filepath.Base(ss.shardPath(k)), err)
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

// attestedStates is what the sidecar's records ms attest of each of a set's
// shards, unverified. A scan keeps its commit points at those Seqs, the only
// ones the replay asks about, and resume decides from them before the replay
// has checked a signature: a state that does not verify fails the replay, so
// it vouches for nothing in a verdict that passes; nor does a sidecar that
// does not parse.
func attestedStates(ms []*Manifest, shards int) [][]ShardState {
	states := make([][]ShardState, shards)
	for _, m := range ms {
		for k, st := range m.Shards[:min(len(m.Shards), shards)] {
			states[k] = append(states[k], st)
		}
	}
	return states
}

// commitSet is one shard's verified commit points — the (entries, chain
// head, counter) triples its signature records attest, the unit of the
// manifest cross-check — at the Seqs the set's sidecar attests states at:
// the replay asks about no others. It is filled by that shard's merger
// goroutine (sequentially, in stream order: Seq never decreases) and read
// only after the shard's verification returns.
type commitSet struct {
	base *ShardState  // a resumed scan's checkpoint; it and every state below its Seq are the shard's once vouched for
	pts  []ShardState // the points kept: from the empty log on — the creation manifest binds it — or from base
	seqs []uint64     // the attested Seqs, ascending
	next int          // seqs[next] is the first not below the last point scanned
}

// newCommitSet starts the commit set of a cold scan, to keep the points at
// the Seqs of attested.
func newCommitSet(attested []ShardState) *commitSet {
	seqs := make([]uint64, 0, len(attested))
	for _, st := range attested {
		seqs = append(seqs, st.Seq)
	}
	slices.Sort(seqs)
	return &commitSet{pts: []ShardState{{}}, seqs: slices.Compact(seqs)}
}

// collect is an OnSegment that keeps each segment's commit point if its Seq
// is attested and then hands it to inner, if any.
func (cs *commitSet) collect(inner func(SegmentInfo) error) func(SegmentInfo) error {
	return func(si SegmentInfo) error {
		for cs.next < len(cs.seqs) && cs.seqs[cs.next] < si.EndSeq {
			cs.next++
		}
		if cs.next < len(cs.seqs) && cs.seqs[cs.next] == si.EndSeq {
			cs.pts = append(cs.pts, ShardState{Seq: si.EndSeq, Counter: si.Counter, Chain: si.Chain})
		}
		if inner != nil {
			return inner(si)
		}
		return nil
	}
}

// has reports whether a manifest-attested state is consistent with the
// shard's verified log: the base of a resumed scan or a state below it
// (DESIGN.md §14 says why those need no scan), or a point scanned.
func (cs *commitSet) has(st ShardState) bool {
	if b := cs.base; b != nil && (st.Seq < b.Seq || st == *b) {
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

// verifyShard verifies the shard image at path with the pipeline and
// returns its commit points at the Seqs of claims — the states the set's
// sidecar attests of this shard, unverified. It is the one place resume is
// decided: under ResumeAuto the scan starts from the image's checkpoint
// sidecar (<path>.ckpt) when claims could vouch for it and the file
// authenticates it (resumeFrom). The replay's membership check then holds
// the resume to its word: one of those claims is at or past the checkpoint's
// Seq, and only the checkpoint itself or a point the resumed scan reached
// can match it (DESIGN.md §14). A resumed scan that fails with a verdict is
// verified again cold, so a failing verdict is the cold one, and the shard
// is reported as not resumed.
func verifyShard(ctx context.Context, path string, opts StreamOptions, at shardRef, claims []ShardState) (*StreamResult, *commitSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	at.sidecar = path + ".ckpt"
	cs := newCommitSet(claims)
	opts.OnSegment = cs.collect(opts.OnSegment)
	if c := resumeFrom(f, at, &opts, claims); c != nil {
		base := c.state()
		cs.base, cs.pts = &base, nil
		res, err := verifyStream(ctx, f, &opts, at, c)
		if !errors.Is(err, ErrTampered) && !errors.Is(err, ErrBadCounter) {
			return res, cs, err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, nil, err
		}
		*cs = *newCommitSet(claims)
	}
	res, err := verifyStream(ctx, f, &opts, at, nil)
	return res, cs, err
}

// resumeFrom is the checkpoint shard at's scan of f resumes from, f left at
// its offset, or nil for a cold scan: under ResumeAuto, the sidecar at
// at.sidecar, if claims could vouch for it — one attests its Seq or a later
// one, which the scan must then reach, and none another state at its Seq,
// which only a cold scan can place before or after it — and the file
// authenticates it.
func resumeFrom(f *os.File, at shardRef, opts *StreamOptions, claims []ShardState) *Checkpoint {
	if !opts.ResumeAuto || len(claims) == 0 {
		return nil
	}
	c, err := LoadCheckpoint(at.sidecar)
	if err != nil || c.Shard != at.k {
		return nil
	}
	ahead, state := false, c.state()
	for _, st := range claims {
		if st.Seq == c.Seq && st != state {
			return nil
		}
		ahead = ahead || st.Seq >= c.Seq
	}
	if !ahead || c.matchFile(f, opts.Pub) != nil {
		return nil
	}
	if _, err := f.Seek(c.Offset, io.SeekStart); err != nil {
		return nil
	}
	return c
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
func setImages(ss *shardSet, sidecar []byte, read func(string) ([]byte, error), opts *StreamOptions, scan shardScan) (paths []string, image []byte, land bool) {
	paths = make([]string, ss.shards)
	for k := range paths {
		paths[k] = ss.shardPath(k)
	}
	staged, err := read(stagedPath(ss.manifest))
	if err != nil {
		return paths, sidecar, false
	}
	ms, err := readManifests(staged, false)
	if err != nil || len(ms) != 1 {
		return paths, sidecar, false
	}
	old, err := readManifests(sidecar, opts.RecoverTruncated)
	rp := replayRecords(ss, old, err, opts)
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
		cs := newCommitSet(ms[0].Shards[k : k+1])
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
	manifestReplayer
	ms  []*Manifest
	err error
}

// replayRecords replays the sidecar's records: ms as readManifests parsed
// them, err what stopped the parse.
func replayRecords(ss *shardSet, ms []*Manifest, err error, opts *StreamOptions) *manifestReplay {
	rp := &manifestReplay{manifestReplayer: manifestReplayer{Name: ss.name, Pub: opts.Pub, Shards: ss.shards}, ms: ms}
	if err != nil {
		rp.err = fmt.Errorf("manifest sidecar: %w", err)
	} else if len(ms) == 0 && !opts.RecoverTruncated {
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
func (rp *manifestReplay) judge(ss *shardSet, opts *StreamOptions, points []*commitSet, out *Report) error {
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
	if err := checkFreshness(rp.Counter(), ManifestCounterName(ss.name), opts.VerifyOptions); err != nil {
		return fmt.Errorf("manifest sidecar: %w", err)
	}
	return nil
}

// LiveSet is the set rule above applied to what a live follower holds of a
// set: a prefix of each file, growing as the follower receives it. Each
// shard's stream runs through the verifier core (IncrementalVerifier), the
// sidecar's through manifestReplayer's record checks, and every state a
// manifest attests must be a commit point of its shard's stream (commitSet's
// membership). A claim at or below the last commit point a stream reached is
// judged at once; one past it waits, and fails when the stream passes its Seq
// without holding it or when Settle, called once the follower holds the whole
// of every file, finds it still waiting: VerifyPath's verdict on those files.
// One sidecar attests each shard's states in order, so the points below a
// shard's latest claim are dropped: there is no window a claim can leave.
//
// A stream that restarts cold (RestartShard) replaces one the follower
// verified, and a follower never accepts a state older than one it has seen:
// the restarted stream must hold the last commit point verified on its shard
// again, chain head and counter, as it must every claim still waiting on it.
// Only a later incarnation of the file is excused, one whose first commit
// point is signed above every counter verified on the shard — which only a
// compaction signs — and only in a restart that restarted the sidecar's
// stream too. Not safe for concurrent use.
type LiveSet struct {
	// OnManifest, if set, observes each manifest that passed its record
	// checks and whose claims are judged or waiting.
	OnManifest func(*Manifest)

	name   string
	opts   VerifyOptions
	shards []liveShard
	rp     manifestReplayer
}

// liveShard is one shard's stream and what the set rule holds it to.
type liveShard struct {
	v      *IncrementalVerifier
	pts    commitSet   // the points reached at or past the latest claim, above base if resumed
	claims []liveClaim // states attested past the stream's last point, waiting for it
	later  bool        // the stream's first point, if signed above floor, excuses the claims made before its restart
	floor  uint64
}

// liveClaim is a state the stream must hold: a manifest's (epoch > 0) or the
// follower's own last verified point on a restarted stream. One made before
// the stream restarted (before) is the replaced stream's history.
type liveClaim struct {
	ShardState
	epoch  uint64
	before bool
}

// NewLiveSet starts judging the streams of a set of shards, which start with
// RestartShard and RestartManifests.
func NewLiveSet(name string, opts VerifyOptions, shards int) *LiveSet {
	return &LiveSet{name: name, opts: opts, shards: make([]liveShard, shards)}
}

// RestartShard starts shard k's stream again and returns it, for the caller to
// feed the bytes of the shard's file it receives: from checkpoint c, which the
// caller has authenticated, when resume is set and c adopts, else from the
// empty log. withSidecar says the sidecar's stream restarted from its head in
// the same restart (RestartManifests comes first). A resumed stream vouches
// for the states below c, as a resumed offline scan does (DESIGN.md §14), to
// all but a sidecar that replaced one whose manifests the follower verified:
// those must attest states the stream reaches. A cold stream must hold c —
// the last commit point the follower verified on the shard, if any — and
// every claim still waiting, unless withSidecar is set and its first commit
// point is signed above floor, the highest counter verified on the shard.
func (s *LiveSet) RestartShard(k int, c *Checkpoint, resume, withSidecar bool, floor uint64) (v *IncrementalVerifier, resumed bool) {
	sh := &s.shards[k]
	sh.v = NewIncrementalVerifier(s.opts, func(ci CommitInfo) error { return s.commit(k, ci) })
	sh.later, sh.floor = false, 0
	if resume && c != nil && sh.v.Resume(c) == nil {
		base := c.state()
		sh.pts = commitSet{base: &base}
		if withSidecar && s.rp.seeded {
			sh.pts = commitSet{pts: []ShardState{base}}
		}
		sh.claims = slices.DeleteFunc(sh.claims, func(c liveClaim) bool { return sh.pts.has(c.ShardState) })
		return sh.v, true
	}
	sh.pts = commitSet{pts: []ShardState{{}}}
	sh.later, sh.floor = withSidecar, floor
	if c != nil {
		sh.claims = append(sh.claims, liveClaim{ShardState: c.state()})
	}
	for i := range sh.claims {
		sh.claims[i].before = true
	}
	return sh.v, false
}

// RestartManifests starts the sidecar's stream from its head and returns its
// reader, for the caller to resume (ResumeAt) where it proved its position and
// to feed the bytes of the sidecar it receives.
// Once a manifest was verified, seeded carries its epoch and counter: the
// stream's next manifest must pass them.
func (s *LiveSet) RestartManifests(seeded bool, epoch, counter uint64) *IncrementalManifestReader {
	s.rp = manifestReplayer{Name: s.name, Pub: s.opts.Pub, Shards: len(s.shards)}
	if seeded {
		s.rp.Seed(epoch, counter)
	}
	return newIncrementalManifestReader(s.manifest)
}

// manifest judges one manifest: its record checks, then each state it attests.
func (s *LiveSet) manifest(m *Manifest) error {
	if err := s.rp.Verify(m); err != nil {
		return err
	}
	for k, st := range m.Shards {
		if err := s.claim(k, liveClaim{ShardState: st, epoch: m.Epoch}); err != nil {
			return err
		}
	}
	if s.OnManifest != nil {
		s.OnManifest(m)
	}
	return nil
}

// claim judges c against shard k's stream, or leaves it waiting past the
// stream's last point. The empty log is every stream's start.
func (s *LiveSet) claim(k int, c liveClaim) error {
	sh := &s.shards[k]
	i, _ := slices.BinarySearchFunc(sh.pts.pts, c.Seq, func(p ShardState, seq uint64) int { return cmp.Compare(p.Seq, seq) })
	sh.pts.pts = sh.pts.pts[:copy(sh.pts.pts, sh.pts.pts[i:])]
	switch {
	case c.ShardState == ShardState{} || sh.pts.has(c.ShardState):
		return nil
	case c.Seq < sh.v.led.cur.seq:
		return c.rolledBack(k)
	}
	sh.claims = append(sh.claims, c)
	return nil
}

// commit absorbs a commit point of shard k's stream: the claims it meets go,
// and one whose Seq it passes is a shard rolled back.
func (s *LiveSet) commit(k int, ci CommitInfo) error {
	sh := &s.shards[k]
	pt := ShardState{Seq: ci.Seq, Chain: ci.Chain, Counter: ci.Counter}
	later := sh.later && ci.Counter > sh.floor // a compaction's image: the replaced history goes
	sh.later = false
	sh.pts.pts = append(sh.pts.pts, pt)
	waiting := sh.claims[:0]
	for _, c := range sh.claims {
		switch {
		case c.ShardState == pt, later && c.before:
		case c.Seq < pt.Seq:
			return c.rolledBack(k)
		default:
			waiting = append(waiting, c)
		}
	}
	sh.claims = waiting
	return nil
}

// Settle is the verdict once the follower holds the whole of every file: a
// claim still waiting is one its shard's log does not hold.
func (s *LiveSet) Settle() error {
	for k := range s.shards {
		if cs := s.shards[k].claims; len(cs) > 0 {
			return cs[0].rolledBack(k)
		}
	}
	return nil
}

func (c liveClaim) rolledBack(k int) error {
	if c.epoch == 0 {
		return fmt.Errorf("%w: shard %d's restarted stream does not hold seq=%d counter=%d, the last commit point verified on it — shard rolled back",
			ErrBadCounter, k, c.Seq, c.Counter)
	}
	return fmt.Errorf("%w: epoch manifest %d attests shard %d at seq=%d counter=%d, but the shard log holds no such commit point — shard rolled back",
		ErrBadCounter, c.epoch, k, c.Seq, c.Counter)
}

// Report adds the committed totals of the shards' streams to r.
func (s *LiveSet) Report(r *Report) {
	for _, sh := range s.shards {
		if sh.v == nil {
			continue
		}
		t := &sh.v.led.cur
		r.TotalEntries += int(t.seq)
		r.TotalBatches += t.batches
		r.CommittedBytes += t.end
		for name, n := range sh.v.Tables() {
			r.Tables[name] += n
		}
	}
}
