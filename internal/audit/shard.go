package audit

import (
	"cmp"
	"crypto/ecdsa"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/sqldb"
	"libseal/internal/telemetry"
	"libseal/internal/vfs"
)

// Sharding telemetry: manifest cadence and failures show how tight the
// cross-shard rollback window is (the tail after the last manifest is
// covered only by the per-shard counters).
var (
	mManifests      = telemetry.NewCounter("audit.manifests", "records")
	mManifestErrors = telemetry.NewCounter("audit.manifest.errors", "calls")
)

// defaultManifestEvery is the manifest cadence when ShardedConfig leaves
// ManifestEvery zero.
const defaultManifestEvery = 500 * time.Millisecond

// ShardedConfig describes a sharded audit log. The embedded Config applies
// to every shard; per-shard limits (DegradedLimit, MaxStaged) are budgets
// per shard, so the aggregate budget scales with the shard count.
type ShardedConfig struct {
	Config
	// Shards is the number of independent commit pipelines; values < 1 mean
	// one. In ModeDisk every set, one shard included, is the same layout:
	// shard k's file <Name>-shard<k>.lseal under its own counter, and the
	// epoch-manifest sidecar <Name>.manifest under the <Name>-manifest
	// counter.
	Shards int
	// ManifestEvery is the minimum interval between periodic epoch
	// manifests. Zero selects a default (500ms). Only meaningful in
	// ModeDisk.
	ManifestEvery time.Duration
}

// shardCount normalises the configured shard count.
func (c ShardedConfig) shardCount() int {
	if c.Shards < 1 {
		return 1
	}
	if c.Shards > maxManifestShards {
		return maxManifestShards
	}
	return c.Shards
}

// shardConfig derives shard k's per-log configuration. The schema is
// applied once to the shared database, never per shard.
func (c ShardedConfig) shardConfig(k int) Config {
	sc := c.Config
	sc.Schema = ""
	sc.Name = ShardName(c.Name, k)
	return sc
}

// ShardName is shard k's log name — also its file basename (ShardName +
// ".lseal") and its rollback-counter name.
func ShardName(name string, k int) string {
	return fmt.Sprintf("%s-shard%d", name, k)
}

// ManifestFileName is the basename of a log set's epoch-manifest sidecar.
func ManifestFileName(name string) string {
	return name + ".manifest"
}

// HasLogSet reports whether dir holds a previous run's log set name, which
// RecoverSharded resumes and NewSharded would truncate: a manifest sidecar or
// a shard file that holds more than its magic. Files that hold at most their
// magic are what a creation killed before its first record leaves
// (NewSharded): no set, and nothing to lose.
func HasLogSet(dir, name string) bool {
	paths, _ := filepath.Glob(filepath.Join(dir, name+"-shard*.lseal"))
	for _, path := range append(paths, filepath.Join(dir, ManifestFileName(name))) {
		if fi, err := os.Stat(path); err == nil && fi.Size() > int64(len(fileMagic)) {
			return true
		}
	}
	return false
}

// ManifestCounterName is the rollback-counter name anchoring epoch
// manifests: one increment per manifest covers all shards.
func ManifestCounterName(name string) string {
	return name + "-manifest"
}

// ShardedLog partitions an audit log across N independent Log instances.
// Entries are routed by a stable hash of the caller's connection key, so one
// connection's entries always land on one shard in order, while different
// connections spread across N group-commit pipelines — N batch leaders, N
// files, N fsync streams, N rollback counters — instead of serialising on
// one. All shards share a single relational database, so invariant queries
// observe the whole service history regardless of the partitioning.
//
// Cross-shard integrity is bound by periodic epoch manifests (see
// manifest.go): without them, rolling a single shard file back to an
// earlier signed prefix would pass that shard's own chain and signature
// checks.
type ShardedLog struct {
	cfg    ShardedConfig
	db     *sqldb.DB
	shards []*Log

	// image is the size of a fresh image of the rows db held at the last
	// trim — what a compaction would leave on disk (CompactDue).
	image atomic.Int64
	// gen is the set generation (Generation).
	gen atomic.Uint64

	// Manifest lane. mmu serialises manifest signing and sidecar I/O; it is
	// ordered after the shard locks (a manifest writer never holds mmu while
	// acquiring a shard's mutex — states are snapshotted first). manifest is
	// nil in memory mode, which persists nothing.
	mmu          sync.Mutex
	manifest     *recordFile // outside resource, accessed via ocalls
	epoch        uint64
	mcounter     uint64   // last manifest-counter value written
	mhead        [32]byte // digest of the sidecar's last record, the next one's Prev (a shard's sigHead)
	lastManifest time.Time
	mclosed      bool

	// onBuilt (tests) runs in a compaction between building and collecting
	// anchors.
	onBuilt func(rws []rewrite)
}

// Name is the log set's name (Config.Name).
func (s *ShardedLog) Name() string { return s.cfg.Name }

// Files lists the set's persisted files in a fixed order — every shard's
// log, then the manifest sidecar. It is empty for a memory-only set.
func (s *ShardedLog) Files() []FileView {
	if s.cfg.Mode != ModeDisk {
		return nil
	}
	views := make([]FileView, 0, len(s.shards)+1)
	for _, sh := range s.shards {
		views = append(views, FileView{sh.file})
	}
	return append(views, FileView{s.manifest})
}

// Generation identifies the incarnation of the set's files, for readers
// outside the enclave that stream them (the replication feed): even while no
// compaction is landing, odd from a land's first rename until it has settled,
// and changed after a land iff it replaced the files. A reader that sees one
// even value before and after reading raw bytes knows they came from one
// incarnation of the set. A land that fails past its first rename leaves it
// odd: the set takes no appends until a restart completes the land.
func (s *ShardedLog) Generation() uint64 { return s.gen.Load() }

// SetCommitNotify installs fn to run after every durable change to any of
// the set's persisted files — a shard's batch commit, re-anchor or
// compaction, and every manifest append or rewrite. fn runs on the committing
// goroutine and must not block; the replication feed installs a coalescing
// wakeup. One listener at a time; nil uninstalls.
func (s *ShardedLog) SetCommitNotify(fn func()) {
	for _, v := range s.Files() {
		v.f.setNotify(fn)
	}
}

// newSet builds a set: the shared database with the schema applied once,
// every shard's log from open, and in disk mode the manifest lane's (not yet
// written) file.
func newSet(cfg ShardedConfig, open func(Config, *sqldb.DB) (*Log, error)) (*ShardedLog, error) {
	s := &ShardedLog{cfg: cfg, db: sqldb.New()}
	if cfg.Schema != "" {
		if _, err := s.db.Exec(cfg.Schema); err != nil {
			return nil, fmt.Errorf("audit: schema: %w", err)
		}
	}
	for k := 0; k < cfg.shardCount(); k++ {
		l, err := open(cfg.shardConfig(k), s.db)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("audit: shard %d: %w", k, err)
		}
		s.shards = append(s.shards, l)
	}
	if cfg.Mode == ModeDisk {
		path := filepath.Join(cfg.Dir, ManifestFileName(cfg.Name))
		s.manifest = &recordFile{fs: vfs.Default(cfg.FS), path: path, magic: manifestMagic}
	}
	return s, nil
}

// NewSharded creates (or truncates) a sharded audit log. In disk mode it
// creates every shard file, then the manifest sidecar, and appends the
// creation manifest attesting the empty shards, whatever the shard count. A
// process killed before the sidecar holds a record leaves no set (HasLogSet);
// one killed after leaves the empty set, which recovery resumes. Must run
// inside an enclave call.
func NewSharded(env *asyncall.Env, cfg ShardedConfig) (*ShardedLog, error) {
	s, err := newSet(cfg, func(c Config, db *sqldb.DB) (*Log, error) { return newShard(env, c, db) })
	if err != nil {
		return nil, err
	}
	if cfg.Mode != ModeDisk {
		return s, nil
	}
	if err := env.Ocall(s.manifest.create); err != nil {
		s.Close()
		return nil, err
	}
	if err := s.putManifest(env, s.snapshotStates(env), false); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// RecoverSharded rebuilds a log set after a restart, as a driver of the set
// rule (VerifyPath's): every shard image is verified torn-tail tolerant with
// RecoverMaxLag as MaxCounterLag by the pipeline, its rows streamed into the
// shared database on the enclave call's goroutine, and the sidecar judged
// against the shards' commit points.
// It succeeds exactly when a tolerant VerifyPath at that lag does, and writes
// only once the verdict is in: an interrupted land installed or its debris
// removed (setImages), each shard's crash debris cut off and the shard
// re-anchored, and the sidecar replaced by one fresh manifest attesting the
// recovered states. The shard count must match the one the files were created
// with. Must run inside an enclave call.
func RecoverSharded(env *asyncall.Env, cfg ShardedConfig, pub *ecdsa.PublicKey) (*ShardedLog, error) {
	if cfg.Mode != ModeDisk {
		return nil, errors.New("audit: recovery requires disk mode")
	}
	s, err := newSet(cfg, func(c Config, db *sqldb.DB) (*Log, error) { return newLogDB(c, db), nil })
	if err != nil {
		return nil, err
	}
	if err := s.recover(env, pub); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// recover is RecoverSharded's verdict and, once it is in, its writes.
func (s *ShardedLog) recover(env *asyncall.Env, pub *ecdsa.PublicKey) error {
	fsys := vfs.Default(s.cfg.FS)
	read := func(path string) (b []byte, err error) {
		env.Ocall(func() error { b, err = fsys.ReadFile(path); return nil })
		return b, err
	}
	// Locate the set as the verifier does: shard files without a sidecar are
	// refused, and a shard file missing or extra is what the verifier's
	// replay refuses against the manifests' shard count.
	var ss *shardSet
	var err error
	env.Ocall(func() error { ss, err = findShardSet(s.cfg.Dir); return nil })
	switch {
	case err != nil:
		return err
	case ss.name != s.cfg.Name:
		return fmt.Errorf("audit: %s holds log set %s, not %s", ss.dir, ss.name, s.cfg.Name)
	case ss.shards != len(s.shards):
		return fmt.Errorf("%w: %d shard files in %s, the set has %d", ErrTampered, ss.shards, ss.dir, len(s.shards))
	}
	sidecar, err := read(ss.manifest)
	if err != nil {
		return err
	}
	opts := StreamOptions{VerifyOptions: VerifyOptions{
		Pub: pub, Protector: s.cfg.Protector, RecoverTruncated: true, MaxCounterLag: s.cfg.RecoverMaxLag,
	}}
	paths, sidecar, land := setImages(ss, sidecar, read, opts)
	ms, parseErr := readManifests(sidecar, opts.RecoverTruncated)
	attested := attestedStates(ms, ss.shards)
	results := make([]*StreamResult, ss.shards)
	sizes := make([]int64, ss.shards)
	points := make([]*commitSet, ss.shards)
	for k, sh := range s.shards {
		img, err := read(paths[k])
		if err != nil {
			return fmt.Errorf("audit: shard %d: %w", k, err)
		}
		points[k] = newCommitSet(attested[k])
		if results[k], err = ss.scanImage(k, img, opts, points[k].collect(sh.replay)); err != nil {
			return fmt.Errorf("shard %d (%s): %w", k, filepath.Base(ss.shardPath(k)), err)
		}
		sizes[k] = int64(len(img))
	}
	rp := replayRecords(ss, ms, parseErr, &opts)
	if err := rp.judge(ss, &opts, points, &Report{}); err != nil {
		return err
	}
	// The verdict is in; from here recovery writes, the land first, in land's
	// order: the shards' images, then the sidecar's.
	if err := env.Ocall(func() error {
		for k, sh := range s.shards {
			if err := sh.file.resolveStaged(paths[k] != ss.shardPath(k)); err != nil {
				return err
			}
		}
		if err := s.manifest.resolveStaged(land); err != nil || !land {
			return err
		}
		return s.manifest.syncDir()
	}); err != nil {
		return err
	}
	for k, sh := range s.shards {
		if err := sh.resume(env, results[k], sizes[k]); err != nil {
			return err
		}
	}
	s.epoch, s.mcounter = rp.Epoch(), rp.Counter()
	return s.putManifest(env, s.snapshotStates(env), true)
}

// ShardFor routes a connection key to its shard: a stable hash, so the same
// connection always appends to the same shard (preserving per-connection
// order) across the life of the set.
func (s *ShardedLog) ShardFor(key uint64) int {
	if len(s.shards) == 1 {
		return 0
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], key)
	h := fnv.New64a()
	h.Write(b[:])
	return int(h.Sum64() % uint64(len(s.shards)))
}

// Shards returns the shard count.
func (s *ShardedLog) Shards() int { return len(s.shards) }

// DB exposes the shared relational database for invariant queries.
func (s *ShardedLog) DB() *sqldb.DB { return s.db }

// Query runs an invariant query against the shared database.
func (s *ShardedLog) Query(sql string, args ...any) (*sqldb.Result, error) {
	return s.db.Query(sql, args...)
}

// Stage inserts the rows into the shared database and stages them into the
// commit pipeline of the key's shard, as one unit. See Log.Stage for the
// ticket contract.
func (s *ShardedLog) Stage(env *asyncall.Env, key uint64, rows []Row) (*Ticket, error) {
	return s.shards[s.ShardFor(key)].Stage(env, rows)
}

// Append adds one tuple via the key's shard and waits for durability.
func (s *ShardedLog) Append(env *asyncall.Env, key uint64, table string, vals ...any) error {
	return s.shards[s.ShardFor(key)].Append(env, table, vals...)
}

// Seq returns the total number of durable entries across all shards.
func (s *ShardedLog) Seq() uint64 {
	var total uint64
	for _, sh := range s.shards {
		total += sh.Seq()
	}
	return total
}

// PendingStaged returns the total staged-but-not-durable entries across all
// shards.
func (s *ShardedLog) PendingStaged() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.PendingStaged()
	}
	return total
}

// Status aggregates the shards' degraded-mode state: degraded if any shard
// is, with pending appends and closed gaps summed.
func (s *ShardedLog) Status() Status {
	var agg Status
	for _, sh := range s.shards {
		st := sh.Status()
		agg.Degraded = agg.Degraded || st.Degraded
		agg.PendingAnchor += st.PendingAnchor
		agg.Gaps += st.Gaps
	}
	return agg
}

// Reanchor attempts to close degraded-mode gaps on every shard. All shards
// are tried; the first error is returned.
func (s *ShardedLog) Reanchor(env *asyncall.Env) error {
	var firstErr error
	for _, sh := range s.shards {
		if err := sh.Reanchor(env); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// PlanTrim is sqldb.Snapshot.PlanTrim, timed as audit.trim.plan.
func PlanTrim(snap *sqldb.Snapshot, script []*sqldb.Stmt) (*sqldb.TrimPlan, error) {
	defer telemetry.ObserveSince(mTrimPlan, "audit.trim.plan", time.Now())
	return snap.PlanTrim(script)
}

// ApplyTrim is a trim's database half (§5.1, "Log trimming"), the one every
// check+trim cycle runs: it commits a plan made on a snapshot of the shared
// database. The plan holds what the service's trimming queries kept of the
// rows the snapshot captured; rows appended since were never shown to the
// invariants that ran on that snapshot and all survive. A plan the database
// refuses (sqldb.ErrTrimStale) trims nothing.
//
// It holds what Stage holds while it inserts — every shard's lock, in shard
// order — but leaves the commit lanes running. It writes no file, spends no
// counter increment and moves no file's generation, so a follower of the files
// sees nothing but appends: between compactions each shard file is an
// append-only history of every row the database holds and of the rows trimmed
// from it since. CompactDue says when half the files' bytes are dead, Compact
// reclaims them, and recovery in between replays the trimmed rows, which the
// next trim removes again.
func (s *ShardedLog) ApplyTrim(env *asyncall.Env, plan *sqldb.TrimPlan) error {
	for _, sh := range s.shards {
		asyncall.Lock(env, &sh.mu)
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()
	mTrims.Inc()
	defer telemetry.ObserveSince(mTrimLatency, "audit.trim", time.Now())
	if err := s.db.ApplyTrim(plan); err != nil {
		return fmt.Errorf("audit: trim: %w", err)
	}
	image := s.imageBytes(s.liveBytes())
	s.image.Store(image)
	mLiveBytes.Set(image)
	mCommittedBytes.Set(s.committedBytes())
	return nil
}

// liveBytes sums the encoded entries of the rows the shared database holds,
// and counts them.
func (s *ShardedLog) liveBytes() (live, rows int64) {
	for _, t := range s.db.Tables() {
		trows, _ := s.db.TableRows(t) // t is one of Tables(): no error
		for _, row := range trows {
			live += (&Entry{Table: t, Values: row}).size()
		}
		rows += int64(len(trows))
	}
	return live, rows
}

// imageBytes is what a compaction writes for rows entries of live encoded
// bytes: a 5-byte record header per entry and, per shard file, its magic and
// one signature record.
func (s *ShardedLog) imageBytes(live, rows int64) int64 {
	return live + rows*5 + int64(len(s.shards))*(int64(len(fileMagic))+sigRecordMax)
}

// committedBytes sums the shard files' committed lengths (zero in memory
// mode).
func (s *ShardedLog) committedBytes() int64 {
	var n int64
	for _, sh := range s.shards {
		if sh.file != nil {
			n += sh.file.size.Load()
		}
	}
	return n
}

// CompactDue reports whether a compaction pays, as of the last ApplyTrim: the
// shard files' committed bytes are at least twice what a fresh image of the
// surviving rows takes — at least half of them are dead. A constant, not a
// setting: it bounds the amortised rewrite cost by the bytes appended since
// the last compaction, whatever the retained row count. Memory mode has no
// files, so there a compaction is never due.
func (s *ShardedLog) CompactDue() bool {
	return s.cfg.Mode == ModeDisk && s.committedBytes() >= 2*s.image.Load()
}

// Compact is a trim's file half: every shard file is rewritten as a fresh
// image of the rows the shared database holds (§5.1, "Log trimming"). A
// check+trim cycle runs it when CompactDue says so; core's TrimNow always
// does. A memory-mode set has no files, and Compact does nothing.
//
// The rows are partitioned round-robin across the shards (deterministic
// table-sorted order — with one shard, simply every row in that order), each
// shard's chain is rebuilt over its partition with a fresh counter anchor,
// and the manifest sidecar is rewritten to attest the post-compaction states.
// All shards are quiesced for the duration, so the partition cannot race
// staged appends or interleave with a batch's file I/O.
//
// Past the quiesce the compaction leaves the enclave three times whatever the
// shard count: one ocall issues every fresh anchor (the shards' and the
// manifest's, independent counters) and returns; the images are built while
// those are in flight and a second ocall collects them; every image is signed
// — the manifest pre-signed over the states the shard images carry — and a
// third lands them all (see land).
//
// The database is not touched, and the compaction lands whole or not at all:
// a failure before the first rename leaves every file and in-memory chain as
// it was, bar the records carrying the counter values already spent, and
// returns the first error; one after it is a crash, and the set refuses
// appends until a restart completes the land.
func (s *ShardedLog) Compact(env *asyncall.Env) error {
	if s.cfg.Mode != ModeDisk {
		return nil
	}
	quiesce := time.Now()
	lockQuiesced(env, s.shards...)
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()
	telemetry.ObserveSince(mTrimQuiesce, "audit.trim.quiesce", quiesce)
	mCompactions.Inc()
	defer telemetry.ObserveSince(mCompactLatency, "audit.compact", time.Now())
	defer func() { mCommittedBytes.Set(s.committedBytes()) }()
	// The manifest lane is held from its counter increment to its record, so
	// no other manifest can slip between the two.
	asyncall.Lock(env, &s.mmu)
	defer s.mmu.Unlock()
	// A set closed, or with a file that failed closed, waits for its restart:
	// a land that failed past its first rename left staged images for it.
	for _, v := range s.Files() {
		if err := v.f.failed; err != nil || s.mclosed {
			return cmp.Or(err, ErrClosed)
		}
	}
	rws := make([]rewrite, len(s.shards))
	mcounter := s.mcounter
	var anchors sync.WaitGroup
	anchored := s.cfg.Protector != nil
	if anchored {
		env.Ocall(func() error {
			// A compaction's anchors never degrade: re-signing trimmed-away
			// history at a stale counter would widen the rollback window.
			goEach(&anchors, len(s.shards), func(k int) {
				rws[k].counter, rws[k].anchorErr = s.cfg.incrementCounter(ShardName(s.cfg.Name, k))
			})
			goEach(&anchors, 1, func(int) { mcounter = s.freshManifestCounter() })
			// Let the requests leave now: a new goroutine queues behind us.
			runtime.Gosched()
			return nil
		})
	}
	for k, part := range s.partitionSurvivors() {
		rws[k].build(part)
	}
	if s.onBuilt != nil {
		s.onBuilt(rws)
	}
	if anchored {
		wait := time.Now()
		env.Ocall(func() error { anchors.Wait(); return nil })
		telemetry.ObserveSince(mTrimAnchorWait, "audit.trim.anchor_wait", wait)
	}
	var err error
	states := make([]ShardState, len(s.shards))
	for k := 0; k < len(s.shards) && err == nil; k++ {
		if err = s.shards[k].signRewrite(env, &rws[k]); err != nil {
			err = fmt.Errorf("audit: shard %d rewrite: %w", k, err)
		}
		states[k] = ShardState{Chain: rws[k].chain, Seq: uint64(len(rws[k].encs)), Counter: rws[k].counter}
	}
	var m *Manifest
	if err == nil {
		m, err = s.signManifest(env, states, mcounter, [32]byte{}) // the staged sidecar's only record
	}
	renamed := false
	if err == nil {
		env.Ocall(func() error { renamed, err = s.land(rws, m); return nil })
	}
	if renamed {
		for k, sh := range s.shards {
			sh.adoptRewrite(&rws[k])
		}
		return s.noteManifest(m, true, err)
	}
	// Nothing moved, but a spent value no record carries is lag the next
	// recovery must tolerate on top of any crash between an increment and its
	// flush. Each is carried at its own value, which no staged image holds any
	// more: a shard's by a signature record re-attesting its chain, the
	// manifest's by a manifest. A file whose record fails fails closed.
	failClosed := func(f *recordFile, err error) {
		if err != nil {
			env.Ocall(func() error { f.fail(err); return nil })
		}
	}
	for k, sh := range s.shards {
		if anchored && rws[k].anchorErr == nil {
			failClosed(sh.file, sh.anchorSignature(env, rws[k].counter))
		}
		states[k] = ShardState{Chain: sh.chain, Seq: sh.seq.Load(), Counter: sh.sigCounter}
	}
	if mcounter != s.mcounter {
		m, merr := s.signManifest(env, states, mcounter, s.mhead)
		if merr == nil {
			merr = env.Ocall(func() error { return s.manifest.commit(record{typ: recManifest, payload: m.payload}) })
			s.noteManifest(m, merr == nil, merr)
		}
		failClosed(s.manifest, merr)
	}
	return err
}

// land puts a compaction's signed images on disk, outside the enclave, and
// reports whether it got past the first rename. Every image is staged side by
// side; a failed staging or first rename moves nothing, and every staged image
// is removed, durably. Else the shards' images are installed, their renames
// made durable by one directory sync and the files settled, then the
// sidecar's image is installed and settled. From the first rename on a
// failure is a crash, and so is a staged image left behind: every file fails
// closed, an installed one settled, and what is staged stays for the restart.
// The set generation is odd from before the first rename until it settles.
func (s *ShardedLog) land(rws []rewrite, m *Manifest) (renamed bool, err error) {
	files := s.Files() // the shards', then the sidecar
	n := len(rws)
	sizes, errs := make([]int64, n+1), make([]error, n+1)
	var staged sync.WaitGroup
	goEach(&staged, n+1, func(k int) {
		if k < n {
			sizes[k], errs[k] = files[k].f.stage(rws[k].recs)
		} else {
			sizes[k], errs[k] = s.manifest.stage([]record{{typ: recManifest, payload: m.payload}})
		}
	})
	staged.Wait()
	if err = cmp.Or(errs...); err == nil {
		s.gen.Add(1) // odd until the land has settled
		defer func() {
			switch {
			case !renamed:
				s.gen.Add(^uint64(0)) // nothing moved: the incarnation readers hold stands
			case err == nil:
				s.gen.Add(1)
				s.manifest.fire()
			}
		}()
	}
	for k := 0; k < n && err == nil; k++ {
		err = files[k].f.install(sizes[k])
		renamed = renamed || err == nil
	}
	crash := err
	if !renamed {
		crash = nil
		for _, v := range files {
			crash = cmp.Or(crash, v.f.resolveStaged(false))
		}
		crash = cmp.Or(crash, s.manifest.syncDir())
	} else if err == nil {
		synced := s.manifest.syncDir()
		for _, v := range files[:n] {
			err = cmp.Or(err, v.f.settle(synced))
		}
		if err == nil {
			if err = s.manifest.install(sizes[n]); err == nil {
				err = s.manifest.settle(s.manifest.syncDir())
			}
		}
		crash = err
	}
	for _, v := range files {
		if crash != nil && v.f.installed {
			v.f.settle(crash)
		} else if crash != nil {
			v.f.fail(crash)
		}
	}
	return renamed, err
}

// goEach starts fn(0) … fn(n-1), each on its own goroutine counted in wg.
func goEach(wg *sync.WaitGroup, n int, fn func(k int)) {
	wg.Add(n)
	for k := 0; k < n; k++ {
		go func() {
			defer wg.Done()
			fn(k)
		}()
	}
}

// partitionSurvivors deals the database rows round-robin across the shards,
// re-encoding each partition as chained entries with fresh per-shard sequence
// numbers. Row order is deterministic (tables sorted, rows in table order),
// so the partition is reproducible for a given database state.
func (s *ShardedLog) partitionSurvivors() [][][]byte {
	tables := s.db.Tables()
	sort.Strings(tables)
	n := len(s.shards)
	parts := make([][][]byte, n)
	i := 0
	for _, t := range tables {
		rows, _ := s.db.TableRows(t) // t is one of Tables(): no error
		for _, row := range rows {
			e := &Entry{Seq: uint64(i / n), Table: t, Values: row} // the i/n-th of shard i%n
			parts[i%n] = append(parts[i%n], e.Marshal())
			i++
		}
	}
	return parts
}

// snapshotStates collects every shard's durable commit point, taking each
// shard's lock briefly (via asyncall.Lock — the snapshot may contend with a
// commit in flight). The states are not a cross-shard atomic cut, and need
// not be: the manifest's guarantee is per shard — each attested triple
// corresponds to a signature record actually on that shard's disk.
func (s *ShardedLog) snapshotStates(env *asyncall.Env) []ShardState {
	states := make([]ShardState, len(s.shards))
	for i, sh := range s.shards {
		asyncall.Lock(env, &sh.mu)
		states[i] = ShardState{Chain: sh.chain, Seq: sh.seq.Load(), Counter: sh.sigCounter}
		sh.mu.Unlock()
	}
	return states
}

// ManifestIfDue appends a fresh epoch manifest when the cadence interval
// has elapsed. It is designed for the request path: if another manifest
// write is in flight, or the last one is recent, it returns immediately.
// Must run inside an enclave call.
func (s *ShardedLog) ManifestIfDue(env *asyncall.Env) error {
	if s.cfg.Mode != ModeDisk || !s.mmu.TryLock() {
		return nil
	}
	every := s.cfg.ManifestEvery
	if every <= 0 {
		every = defaultManifestEvery
	}
	due := !s.mclosed && time.Since(s.lastManifest) >= every
	s.mmu.Unlock()
	if !due {
		return nil
	}
	return s.WriteManifest(env)
}

// WriteManifest appends an epoch manifest now, regardless of cadence; a
// memory-mode set has no sidecar to append to. Must run inside an enclave
// call.
func (s *ShardedLog) WriteManifest(env *asyncall.Env) error {
	if s.cfg.Mode != ModeDisk {
		return nil
	}
	return s.putManifest(env, s.snapshotStates(env), false)
}

// putManifest signs the states as the next epoch and makes the record
// durable: appended to the sidecar, linked to its last record, or — rewrite,
// recovery's counterpart of a shard's re-anchor — as the only record of a
// replaced sidecar, linked to none. Callers may hold shard locks; mmu is taken
// after them.
func (s *ShardedLog) putManifest(env *asyncall.Env, states []ShardState, rewrite bool) error {
	asyncall.Lock(env, &s.mmu)
	defer s.mmu.Unlock()
	// A sidecar that failed closed refuses an append anyway; refuse before
	// spending an increment no manifest would carry, as a shard's commit does.
	if err := s.manifest.failed; err != nil {
		mManifestErrors.Inc()
		return err
	}
	counter := s.mcounter
	if !s.mclosed {
		env.Ocall(func() error {
			counter = s.freshManifestCounter()
			return nil
		})
	}
	var prev [32]byte
	if !rewrite {
		prev = s.mhead
	}
	m, err := s.signManifest(env, states, counter, prev)
	if err != nil {
		return err
	}
	rec := record{typ: recManifest, payload: m.payload}
	landed := false
	err = env.Ocall(func() (err error) {
		if rewrite {
			landed, err = s.manifest.replace(rec)
			return err
		}
		err = s.manifest.commit(rec)
		landed = err == nil
		return err
	})
	return s.noteManifest(m, landed, err)
}

// freshManifestCounter increments the manifest counter best-effort: if the
// quorum is unreachable the manifest is signed at the last written value —
// the signature still binds real shard states, and the lag surfaces through
// the verifier's freshness check once the quorum answers again. While a shard
// of the set is degraded it makes no attempt: the shards' own probes find out
// when the quorum is back. Runs outside the enclave with mmu held.
func (s *ShardedLog) freshManifestCounter() uint64 {
	if s.cfg.Protector != nil && !s.Status().Degraded {
		if c, err := s.cfg.incrementCounter(ManifestCounterName(s.cfg.Name)); err == nil {
			return c
		}
	}
	return s.mcounter
}

// signManifest signs the states as the next epoch, linked to prev, and
// encodes the record's payload. Called with mmu held.
func (s *ShardedLog) signManifest(env *asyncall.Env, states []ShardState, counter uint64, prev [32]byte) (*Manifest, error) {
	if s.mclosed {
		return nil, ErrClosed
	}
	m := &Manifest{Epoch: s.epoch + 1, Counter: counter, Prev: prev, Shards: states}
	sig, err := env.Ctx.Sign(manifestDigest(s.cfg.Name, m))
	if err != nil {
		mManifestErrors.Inc()
		return nil, err
	}
	mSignatures.Inc()
	m.Sig = sig
	m.payload = marshalManifest(m)
	return m, nil
}

// noteManifest books a manifest write: one that landed moves the lane to
// its epoch whatever the error. Called with mmu held.
func (s *ShardedLog) noteManifest(m *Manifest, landed bool, err error) error {
	if err != nil {
		mManifestErrors.Inc()
	}
	if landed {
		s.epoch, s.mcounter, s.mhead, s.lastManifest = m.Epoch, m.Counter, m.digest(), time.Now()
		mManifests.Inc()
	}
	return err
}

// Close drains and closes every shard, then the manifest sidecar. No final
// manifest is written — Close runs outside an enclave call, and the tail
// after the last manifest remains protected by the per-shard counters.
func (s *ShardedLog) Close() error {
	var firstErr error
	for _, sh := range s.shards {
		if err := sh.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.mmu.Lock()
	defer s.mmu.Unlock()
	s.mclosed = true
	if s.manifest != nil {
		if err := s.manifest.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
