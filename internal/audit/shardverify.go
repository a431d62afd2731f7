package audit

import (
	"bytes"
	"cmp"
	"context"
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
)

// Set verification. Every persisted log is a set: N ≥ 1 shard files, each an
// ordinary audit log verified by the streaming pipeline, plus the epoch
// manifest sidecar. The driver below verifies the shards in parallel, collects
// every shard's verified commit points, and replays the sidecar against them:
// each manifest must link to the record before it (so the last one's
// signature, checked once, vouches for them all), its epochs strictly
// increase, its counters never decrease (checked while the shards scan), and
// every shard state it attests must be a commit point that shard's
// verification produced.
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
	paths, sidecar, land := setImages(ss, sidecar, os.ReadFile, opts)
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

// scanImage verifies img as shard k's image with the pipeline, handing each
// committed segment to onSegment on the caller's goroutine.
func (ss *shardSet) scanImage(k int, img []byte, opts StreamOptions, onSegment func(SegmentInfo) error) (*StreamResult, error) {
	opts.OnSegment = onSegment
	return verifyStream(context.Background(), bytes.NewReader(img), &opts, ss.ref(k), nil)
}

// setImages returns what the set is judged from, given its sidecar's bytes:
// each shard's image path and the sidecar image — the set's files, or the
// staged images of an interrupted land that recovery completes (land). read
// reads a file, failing on a missing one.
func setImages(ss *shardSet, sidecar []byte, read func(string) ([]byte, error), opts StreamOptions) (paths []string, image []byte, land bool) {
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
	rp := replayRecords(ss, old, err, &opts)
	// The staged image is a sidecar of its own: its one record links to none.
	rp.head = [32]byte{}
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
		if _, err := ss.scanImage(k, img, opts, cs.collect(nil)); err != nil || !cs.has(ms[0].Shards[k]) {
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
// them, err what stopped the parse. Every record's hash-only checks run in
// order; then one ECDSA check on the last record that passed them vouches for
// every one before it through the links, and only if it fails does a locate
// pass name the first invalid signature — which precedes whichever record
// the hash checks stopped at, as it does in a shard file (firstInvalid).
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
		if rp.err = rp.check(rp.ms[i]); rp.err != nil {
			rp.ms = rp.ms[:i]
		} else {
			rp.advance(rp.ms[i])
		}
	}
	n, i := len(rp.ms), 0
	if n == 0 {
		return rp
	}
	valid := func(p []byte) bool { return validManifest(rp.Pub, rp.Name, p) }
	if bad := firstInvalid(valid, n, rp.ms[n-1].payload, func() ([]byte, bool) { i++; return rp.ms[i-1].payload, true }); bad < n {
		rp.err = fmt.Errorf("%w: manifest %d (epoch %d): signature invalid", ErrTampered, bad, rp.ms[bad].Epoch)
		rp.ms = rp.ms[:bad]
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
// The set is also the follower's memory, which outlives its streams and, by
// Snapshot and Restore, its process: each shard's last verified commit point
// (the resume claim a feed must prove) and highest verified counter, the
// claims still waiting, and the sidecar stream's position at its last verified
// manifest. A follower never accepts a state older than one it has seen: a
// stream that restarts cold (RestartShard) must hold the last commit point
// verified on its shard again, chain head and counter, as it must every claim
// still waiting on it, and it must do so within the grace (Settle), since a
// feed may never let it catch up. Only a later incarnation of the file is
// excused, one whose first commit point is signed above every counter verified
// on the shard — which only a compaction signs — and only in a restart that
// restarted the sidecar's stream too. Not safe for concurrent use.
type LiveSet struct {
	name    string
	opts    VerifyOptions
	grace   time.Duration
	shards  []liveShard
	rp      manifestReplayer
	sidecar livePos // the sidecar stream at its last verified manifest
	cold    bool    // the sidecar's stream restarted from its head in the last restart
	// restarts counts the cold restarts of streams that replaced verified state.
	restarts int
}

// liveShard is one shard's stream, what the set rule holds it to and what the
// set remembers of the shard.
type liveShard struct {
	v       *IncrementalVerifier
	pts     commitSet   // the points reached at or past the latest claim, above base if resumed
	claims  []liveClaim // states attested past the stream's last point, waiting for it
	last    *livePoint  // the last commit point verified on the shard: the resume claim
	max     uint64      // the highest counter verified on the shard
	later   bool        // the stream's first point, if signed above max, excuses the claims made before its restart (Before)
	resumed bool
	since   time.Time // when the stream restarted: the grace of its history claims counts from here
}

// liveClaim is a state the stream must hold: a manifest's (Epoch > 0) or the
// follower's own last verified point on a restarted stream. One made before
// the stream restarted (Before) is the replaced stream's history.
type liveClaim struct {
	ShardState
	Epoch  uint64 `json:",omitempty"`
	Before bool   `json:",omitempty"`
}

// livePoint is a verified commit point with what a stream resumed from it
// needs: the totals under it, and its signature record's offset and payload
// hash, which bind it to one file.
type livePoint struct {
	Offset    int64 // just past the signature record
	Seq       uint64
	Chain     [32]byte
	Counter   uint64
	Batches   int
	Tables    map[string]int `json:",omitempty"`
	SigOffset int64
	SigHash   [32]byte
}

func (p *livePoint) state() ShardState {
	return ShardState{Seq: p.Seq, Counter: p.Counter, Chain: p.Chain}
}

// proves reports whether payload, the signature record a feed or a file says
// ends at p.Offset, binds p to the file: it ends there, hashes to p's hash,
// parses, verifies under pub (when a key is available) and attests exactly p's
// chain head and counter. A resumed stream starts from this record, so this
// ECDSA check vouches for everything the stream does not read: whoever serves
// the payload, a forged claim cannot make a resume accept what a cold start
// would reject.
func (p *livePoint) proves(payload []byte, pub *ecdsa.PublicKey) bool {
	if p.SigOffset < int64(len(fileMagic)) || p.SigOffset+5+int64(len(payload)) != p.Offset || sha256.Sum256(payload) != p.SigHash {
		return false
	}
	rec, err := parseSig(payload)
	return err == nil && rec.chain == p.Chain && rec.counter == p.Counter && validSig(pub, payload)
}

// livePos is the sidecar stream's position just past its last verified
// manifest: the record's offset and payload hash bind it to one file, as
// livePoint's do, and Epoch and Counter are the floor the next manifest must
// pass, as the hash is the link it must name. Count is how many manifests the
// set has verified.
type livePos struct {
	Offset, RecOff int64
	RecHash        string
	Epoch, Counter uint64
	Count          int
}

// proves is livePoint.proves for the sidecar: payload must be the manifest
// record that ends at p.Offset, verify for the named set and attest exactly
// p's epoch and counter.
func (p *livePos) proves(payload []byte, name string, pub *ecdsa.PublicKey) bool {
	if p.RecOff < int64(len(manifestMagic)) || p.RecOff+5+int64(len(payload)) != p.Offset || hexDigest(payload) != p.RecHash {
		return false
	}
	m, err := parseManifest(payload)
	return err == nil && m.Epoch == p.Epoch && m.Counter == p.Counter && validManifest(pub, name, payload)
}

// NewLiveSet starts judging the streams of a set of shards, which start with
// RestartManifests and RestartShard. A restarted stream's history claims wait
// at most grace.
func NewLiveSet(name string, opts VerifyOptions, shards int, grace time.Duration) *LiveSet {
	return &LiveSet{name: name, opts: opts, grace: grace, shards: make([]liveShard, shards)}
}

// RestartManifests starts the sidecar's stream again and returns its reader,
// for the caller to feed the bytes of the sidecar it receives: from the
// position of the last verified manifest when proof — the payload of the
// record a feed says ends there — binds it to the file (the reader's Offset is
// then that position), else from the head of the file. Once a manifest was
// verified, the stream's next one must pass its epoch and counter, and link to
// the proved record, or to none from the head of the file.
func (s *LiveSet) RestartManifests(proof []byte) *IncrementalManifestReader {
	s.rp = manifestReplayer{Name: s.name, Pub: s.opts.Pub, Shards: len(s.shards)}
	r := newIncrementalManifestReader(s.manifest)
	var head [32]byte
	if s.cold = s.sidecar.Offset == 0 || !s.sidecar.proves(proof, s.name, s.opts.Pub); s.cold {
		s.sidecar.Offset, s.sidecar.RecOff, s.sidecar.RecHash = 0, 0, ""
	} else {
		r.in.resumeAt(s.sidecar.Offset)
		head = sha256.Sum256(proof)
	}
	if s.sidecar.Count > 0 {
		s.rp.Seed(s.sidecar.Epoch, s.sidecar.Counter, head)
	}
	return r
}

// RestartShard starts shard k's stream again and returns it, for the caller to
// feed the bytes of the shard's file it receives: from the last commit point
// verified on the shard when proof — the payload of the signature record a
// feed says ends there — binds it to the file (resumed), else from the empty
// log. RestartManifests comes first. A resumed stream vouches for the states
// below its point, as a resumed offline scan does (DESIGN.md §14), to all but
// a sidecar that restarted cold and replaced one whose manifests the set
// verified: those must attest states the stream reaches, its point or one the
// set kept since the shard's latest claim. A cold stream must hold the
// shard's last verified point and every claim still waiting, unless the
// sidecar restarted cold with it and its first commit point is signed above
// every counter verified on the shard.
func (s *LiveSet) RestartShard(k int, proof []byte) (v *IncrementalVerifier, resumed bool) {
	sh := &s.shards[k]
	replaced := sh.v != nil || sh.last != nil || sh.max > 0
	sh.v = NewIncrementalVerifier(s.opts, func(ci CommitInfo) error { return s.commit(k, ci) })
	sh.since = time.Now()
	if sh.resumed = sh.last != nil && sh.last.proves(proof, s.opts.Pub); sh.resumed {
		sh.v.resume(sh.last)
		base := sh.last.state()
		if s.cold && s.rp.seeded {
			sh.pts = commitSet{pts: append(sh.pts.pts, base)}
		} else {
			sh.pts = commitSet{base: &base}
		}
		sh.claims = slices.DeleteFunc(sh.claims, func(c liveClaim) bool { return sh.pts.has(c.ShardState) })
		return sh.v, true
	}
	if replaced {
		s.restarts++
	}
	sh.pts = commitSet{pts: []ShardState{{}}}
	if sh.last != nil {
		sh.claims = append(sh.claims, liveClaim{ShardState: sh.last.state()})
		sh.last = nil
	}
	// A stream that restarted with the sidecar and reached no point before
	// this restart is read again, not replaced: its excuse stands.
	if s.cold || !sh.later {
		for i := range sh.claims {
			sh.claims[i].Before = true
		}
		sh.later = s.cold
	}
	return sh.v, false
}

// manifest judges one manifest, rec its record: its record checks, then each
// state it attests.
func (s *LiveSet) manifest(m *Manifest, rec record) error {
	if err := s.rp.Verify(m); err != nil {
		return err
	}
	for k, st := range m.Shards {
		if err := s.claim(k, liveClaim{ShardState: st, Epoch: m.Epoch}); err != nil {
			return err
		}
	}
	s.sidecar = livePos{Offset: rec.end(), RecOff: rec.off, RecHash: hexChain(s.rp.head), Epoch: m.Epoch, Counter: m.Counter, Count: s.sidecar.Count + 1}
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
// and one whose Seq it passes is a shard rolled back. The feed's last commit
// point — the one its closing check passed on — becomes the shard's resume
// claim.
func (s *LiveSet) commit(k int, ci CommitInfo) error {
	sh := &s.shards[k]
	pt := ShardState{Seq: ci.Seq, Chain: ci.Chain, Counter: ci.Counter}
	later := sh.later && ci.Counter > sh.max // a compaction's image: the replaced history goes
	sh.later = false
	sh.pts.pts = append(sh.pts.pts, pt)
	waiting := sh.claims[:0]
	for _, c := range sh.claims {
		switch {
		case c.ShardState == pt, later && c.Before:
		case c.Seq < pt.Seq:
			return c.rolledBack(k)
		default:
			waiting = append(waiting, c)
		}
	}
	sh.claims = waiting
	sh.max = max(sh.max, ci.Counter)
	if ci.Offset == sh.v.led.cur.end {
		sh.last = sh.v.led.point()
	}
	return nil
}

// Settle judges the claims still waiting. A restarted stream's claim on its
// shard's history that has waited the grace since the restart is a shard
// rolled back: a feed may never let the stream catch up, so a deadline, not
// zero lag, ends that wait. Once the follower holds the whole of every file
// (whole), every claim still waiting is one its shard's log does not hold, and
// a set with no manifest verified has had its sidecar stripped.
func (s *LiveSet) Settle(whole bool) error {
	if whole && s.sidecar.Count == 0 {
		return fmt.Errorf("%w: the whole set holds no verified manifest: the manifest sidecar is missing", ErrTampered)
	}
	for k, sh := range s.shards {
		for _, c := range sh.claims {
			if whole || c.Epoch == 0 && time.Since(sh.since) > s.grace {
				return c.rolledBack(k)
			}
		}
	}
	return nil
}

func (c liveClaim) rolledBack(k int) error {
	if c.Epoch == 0 {
		return fmt.Errorf("%w: shard %d's restarted stream does not hold seq=%d counter=%d, the last commit point verified on it — shard rolled back",
			ErrBadCounter, k, c.Seq, c.Counter)
	}
	return fmt.Errorf("%w: epoch manifest %d attests shard %d at seq=%d counter=%d, but the shard log holds no such commit point — shard rolled back",
		ErrBadCounter, c.Epoch, k, c.Seq, c.Counter)
}

// Report adds the committed totals of the shards' streams, the manifests
// verified and the streams resumed and restarted to r.
func (s *LiveSet) Report(r *Report) {
	r.Manifests, r.Epoch, r.Restarts = s.sidecar.Count, s.sidecar.Epoch, s.restarts
	for _, sh := range s.shards {
		r.Resumed = r.Resumed || sh.resumed
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

// liveStateVersion is LiveState's format. Version 1 was the mirror's own
// state file, which held no waiting claims; version 2 followed a sidecar whose
// manifests did not link.
const liveStateVersion = 3

// LiveState is what a LiveSet remembers (Snapshot), for its follower to
// persist and a restarted follower to adopt (Restore): per shard the last
// verified commit point, the highest verified counter, the points since the
// latest claim, a pending compaction excuse and the claims still waiting, and
// the sidecar stream's position. Like a checkpoint sidecar it is
// unauthenticated, and trusted as little: a restored point or position is a
// claim a feed must prove before a stream resumes from it, and the rest only
// makes the follower stricter. Sum is a self-digest over every other field,
// which catches rot, not an edit.
type LiveState struct {
	Version  int
	Name     string
	Shards   []liveMemory
	Manifest livePos
	Sum      string
}

// liveMemory is what a LiveSet remembers of one shard.
type liveMemory struct {
	Last       *livePoint   `json:",omitempty"`
	MaxCounter uint64       `json:",omitempty"`
	Claims     []liveClaim  `json:",omitempty"`
	Points     []ShardState `json:",omitempty"`
	Later      bool         `json:",omitempty"`
}

func (st *LiveState) digest() string {
	cp := *st
	cp.Sum = ""
	data, _ := json.Marshal(&cp)
	return hexDigest(data)
}

// Snapshot is what the set remembers, self-digested.
func (s *LiveSet) Snapshot() *LiveState {
	st := &LiveState{Version: liveStateVersion, Name: s.name, Shards: make([]liveMemory, len(s.shards)), Manifest: s.sidecar}
	for k, sh := range s.shards {
		st.Shards[k] = liveMemory{Last: sh.last, MaxCounter: sh.max, Claims: slices.Clone(sh.claims), Points: slices.Clone(sh.pts.pts), Later: sh.later}
	}
	st.Sum = st.digest()
	return st
}

// Restore adopts st, a Snapshot of a set of the same name and shard count, as
// what the set remembers, before its streams start. A snapshot of another
// version is ErrCheckpointStale: the follower starts cold.
func (s *LiveSet) Restore(st *LiveState) error {
	switch {
	case st.Version != liveStateVersion:
		return fmt.Errorf("%w: live state version %d, want %d", ErrCheckpointStale, st.Version, liveStateVersion)
	case st.Sum != st.digest():
		return errors.New("audit: live state: integrity digest mismatch")
	case st.Name != s.name || len(st.Shards) != len(s.shards):
		return fmt.Errorf("audit: live state of %d shards of %q, not %d of %q", len(st.Shards), st.Name, len(s.shards), s.name)
	}
	s.sidecar = st.Manifest
	for k, mem := range st.Shards {
		s.shards[k] = liveShard{last: mem.Last, max: mem.MaxCounter, claims: mem.Claims, pts: commitSet{pts: mem.Points}, later: mem.Later}
	}
	return nil
}
