package mirror

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/audit"
	"libseal/internal/enclave"
	"libseal/internal/rote"
	"libseal/internal/telemetry"
)

const testSchema = `
CREATE TABLE updates (seq INTEGER, repo TEXT, branch TEXT, cid TEXT, op TEXT);
`

// mirrorEnv is a live sharded audit log with a replication feed listening
// on a loopback socket — the server half of every test.
type mirrorEnv struct {
	t      testing.TB
	encl   *enclave.Enclave
	bridge *asyncall.Bridge
	group  *rote.Group
	dir    string
	log    *audit.ShardedLog
	feed   *Feed
	addr   string

	stopManifests chan struct{}
	appended      atomic.Int64
}

func newMirrorEnv(t testing.TB, shards int, manifestEvery time.Duration) *mirrorEnv {
	t.Helper()
	return newMirrorEnvProtected(t, shards, manifestEvery, true)
}

// newMirrorEnvProtected is newMirrorEnv with the set's rollback protector, the
// counter group, left out unless protected is set.
func newMirrorEnvProtected(t testing.TB, shards int, manifestEvery time.Duration, protected bool) *mirrorEnv {
	t.Helper()
	p := enclave.NewPlatform()
	encl, err := p.Launch(enclave.Config{Code: []byte("libseal-mirror-test"), MaxThreads: 4, Cost: enclave.ZeroCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	bridge, err := asyncall.New(encl, asyncall.Config{Mode: asyncall.ModeSync})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bridge.Close)
	group, err := rote.NewGroup(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := &mirrorEnv{t: t, encl: encl, bridge: bridge, group: group, dir: t.TempDir(), stopManifests: make(chan struct{})}
	cfg := audit.ShardedConfig{
		Config: audit.Config{Name: "git", Schema: testSchema, Mode: audit.ModeDisk, Dir: e.dir},
		Shards: shards, ManifestEvery: manifestEvery,
	}
	if protected {
		cfg.Protector = group
	}
	e.call(func(env *asyncall.Env) error {
		var err error
		e.log, err = audit.NewSharded(env, cfg)
		return err
	})
	feed, err := NewFeed(e.log)
	if err != nil {
		t.Fatal(err)
	}
	e.feed = feed
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e.addr = ln.Addr().String()
	go feed.Serve(ln)
	// Drive the manifest cadence the way the server's periodic loop does.
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-e.stopManifests:
				return
			case <-tick.C:
				e.bridge.Call(func(env *asyncall.Env) error {
					e.log.ManifestIfDue(env)
					return nil
				})
			}
		}
	}()
	t.Cleanup(func() {
		close(e.stopManifests)
		feed.Close()
	})
	return e
}

func (e *mirrorEnv) call(fn func(env *asyncall.Env) error) {
	e.t.Helper()
	if err := e.bridge.Call(fn); err != nil {
		e.t.Fatal(err)
	}
}

// append writes n entries spread across connection keys.
func (e *mirrorEnv) append(n int) {
	e.t.Helper()
	for i := 0; i < n; i++ {
		i := i
		key := uint64(i % 7)
		e.call(func(env *asyncall.Env) error {
			return e.log.Append(env, key, "updates", i, fmt.Sprintf("repo%d", key), "main", fmt.Sprintf("c%d", i), "update")
		})
		e.appended.Add(1)
	}
}

// appendShard writes n entries that all route to shard k.
func (e *mirrorEnv) appendShard(k, n int) {
	e.t.Helper()
	key := uint64(0)
	for e.log.ShardFor(key) != k {
		key++
	}
	for i := 0; i < n; i++ {
		i := i
		e.call(func(env *asyncall.Env) error {
			return e.log.Append(env, key, "updates", i, "victim", "main", fmt.Sprintf("v%d", i), "update")
		})
		e.appended.Add(1)
	}
}

func (e *mirrorEnv) mirrorConfig() Config {
	return Config{
		Addr:         e.addr,
		Name:         "git",
		Pub:          e.encl.PublicKey(),
		BackoffMin:   10 * time.Millisecond,
		RestartGrace: 400 * time.Millisecond,
	}
}

// waitCaught polls until the mirror has verified want entries with zero
// reported lag. CaughtUp distinguishes "lag confirmed zero by a tail
// report" from the zero value before any tail arrived.
func waitCaught(t *testing.T, m *Mirror, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := m.Err(); err != nil {
			t.Fatalf("mirror violation while catching up: %v", err)
		}
		r := m.Report()
		if r.TotalEntries >= want && r.CaughtUp && r.LagBytes == 0 && r.Connected {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	r := m.Report()
	t.Fatalf("mirror never caught up: entries=%d want=%d lag=%d caught=%v connected=%v err=%v",
		r.TotalEntries, want, r.LagBytes, r.CaughtUp, r.Connected, m.Err())
}

// TestMirrorLiveTail attaches a mirror to a live sharded server, then keeps
// appending: the mirror must follow the log continuously and verify every
// batch and manifest without a violation.
func TestMirrorLiveTail(t *testing.T) {
	e := newMirrorEnv(t, 4, 30*time.Millisecond)
	e.append(40)
	m, err := Start(context.Background(), e.mirrorConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop(context.Background())
	waitCaught(t, m, 40)

	// Live tail: new writes must flow through within the notify path.
	e.append(60)
	waitCaught(t, m, 100)

	r := m.Report()
	if !r.Live || len(r.Shards) != 0 {
		t.Fatalf("Report: Live=%v, %d per-shard results; want a live aggregate", r.Live, len(r.Shards))
	}
	if r.TotalEntries != 100 {
		t.Fatalf("Report.TotalEntries = %d, want 100", r.TotalEntries)
	}
	if r.Tables["updates"] != 100 {
		t.Fatalf("Report.Tables = %v", r.Tables)
	}
	if r.Manifests == 0 || r.Epoch == 0 {
		t.Fatalf("Report: Manifests=%d Epoch=%d, want manifests verified", r.Manifests, r.Epoch)
	}
	if err := m.Err(); err != nil {
		t.Fatalf("clean tail reported violation: %v", err)
	}
}

// TestMirrorResumeAfterRestart kills a caught-up mirror and starts a new
// one from its checkpoint sidecar: the new mirror must resume from the
// verified prefix (no cold rescan — the feed's restart counter stays zero
// and the report says Resumed) and still follow new writes.
func TestMirrorResumeAfterRestart(t *testing.T) {
	e := newMirrorEnv(t, 4, 30*time.Millisecond)
	ckpt := filepath.Join(t.TempDir(), "mirror.ckpt")
	e.append(50)

	cfg := e.mirrorConfig()
	cfg.CheckpointPath = ckpt
	m1, err := Start(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitCaught(t, m1, 50)
	if err := m1.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Writes land while the mirror is down.
	e.append(30)

	m2, err := Start(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop(context.Background())
	// Entries carries the checkpointed prefix, so the caught-up total is the
	// whole log — but only the 30-entry suffix is actually re-verified (no
	// cold rescan: Restarts stays 0 below).
	waitCaught(t, m2, 80)
	r := m2.Report()
	if !r.Resumed {
		t.Fatal("restarted mirror did not resume from its checkpoint")
	}
	if r.Restarts != 0 {
		t.Fatalf("resume caused %d cold restarts, want 0", r.Restarts)
	}
	// Whole-log totals are carried over from the checkpointed prefix.
	if r.TotalEntries != 80 {
		t.Fatalf("Report.TotalEntries = %d, want 80", r.TotalEntries)
	}
	if err := m2.Err(); err != nil {
		t.Fatalf("resumed mirror reported violation: %v", err)
	}
}

// TestMirrorStopReportsFailedSave: a state file that cannot be written is not
// dropped in silence. Each failed save is counted (mirror.checkpoint.errors),
// the state stays dirty for the next round to retry, and Stop returns the
// final save's error.
func TestMirrorStopReportsFailedSave(t *testing.T) {
	e := newMirrorEnv(t, 2, time.Hour)
	e.append(10)
	cfg := e.mirrorConfig()
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "missing", "mirror.state")
	failed := func() int64 {
		m, _ := telemetry.Get("mirror.checkpoint.errors")
		return m.Value
	}
	before := failed()
	m, err := Start(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitCaught(t, m, 10)
	if err := m.Stop(context.Background()); err == nil {
		t.Fatal("Stop returned nil with a state file that cannot be written")
	}
	if n := failed() - before; n == 0 || !m.dirty {
		t.Fatalf("%d failed saves counted, state dirty %v; want them counted and the state left dirty", n, m.dirty)
	}
}

// TestMirrorStartsColdOnOldStateFile: a state file of the format before the
// mirror's memory was its LiveSet's (version 1, which held no waiting claims)
// is not adopted. The mirror starts cold, verifies the set from byte zero and
// replaces the file with its own.
func TestMirrorStartsColdOnOldStateFile(t *testing.T) {
	e := newMirrorEnv(t, 2, time.Hour)
	e.append(10)
	cfg := e.mirrorConfig()
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "mirror.ckpt")
	old := `{"version":1,"name":"git","shards":[{"version":2,"offset":419,"seq":5,"chain":"00","counter":5,"batches":5,"sig_offset":300,"sig_hash":"00","sum":"00"},null],"max_counter":[5,0],"sum":"00"}`
	if err := os.WriteFile(cfg.CheckpointPath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Start(context.Background(), cfg)
	if err != nil {
		t.Fatalf("a version-1 state file refused the start: %v", err)
	}
	waitCaught(t, m, 10)
	if r := m.Report(); r.Resumed || r.Restarts != 0 || r.TotalEntries != 10 {
		t.Fatalf("report %+v, want a cold start that verified all 10 entries", r)
	}
	if err := m.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	var st audit.LiveState
	if err := json.Unmarshal(data, &st); err != nil || st.Version == 1 || len(st.Shards) != 2 {
		t.Fatalf("state file after the cold start: version %d, %d shards (%v); want the mirror's own", st.Version, len(st.Shards), err)
	}
}

// TestMirrorStartsColdOnUnlinkedStateFile: a state file of version 2, saved
// while a sidecar's manifests did not link, is not adopted however well it
// would resume — its sidecar position names a record of the former format —
// and the mirror starts cold. The same state at the current version resumes.
func TestMirrorStartsColdOnUnlinkedStateFile(t *testing.T) {
	e := newMirrorEnv(t, 2, time.Hour)
	e.append(10)
	e.call(e.log.WriteManifest)
	cfg := e.mirrorConfig()
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "mirror.ckpt")
	m, err := Start(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitCaught(t, m, 10)
	if err := m.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	var st audit.LiveState
	if err := json.Unmarshal(saved, &st); err != nil {
		t.Fatal(err)
	}
	current := st.Version
	for _, version := range []int{2, current} {
		// The state as a build writing that version saved it, self-digest and all.
		st.Version, st.Sum = version, ""
		data, _ := json.Marshal(&st)
		sum := sha256.Sum256(data)
		st.Sum = hex.EncodeToString(sum[:])
		data, _ = json.Marshal(&st)
		if err := os.WriteFile(cfg.CheckpointPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := Start(context.Background(), cfg)
		if err != nil {
			t.Fatalf("version %d: %v", version, err)
		}
		waitCaught(t, m, 10)
		if r := m.Report(); r.Resumed != (version == current) || r.Restarts != 0 || r.TotalEntries != 10 {
			t.Fatalf("version %d: report %+v, want all 10 entries, resumed only at version %d", version, r, current)
		}
		if err := m.Stop(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMirrorRefusesCompactionWithoutProtector states a precondition: without
// a rollback protector a compaction's counters do not move, so nothing tells
// its image from a cut one. A caught-up mirror of such a set refuses the
// compaction (ErrBadCounter) while VerifyPath, which holds no memory of the
// replaced files, accepts the compacted set.
func TestMirrorRefusesCompactionWithoutProtector(t *testing.T) {
	e := newMirrorEnvProtected(t, 2, time.Hour, false)
	e.append(20)
	e.call(e.log.WriteManifest)
	m, err := Start(context.Background(), e.mirrorConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop(context.Background())
	waitCaught(t, m, 20)
	e.compact("seq < 10")
	select {
	case <-m.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("no verdict on the compaction: %+v", m.Report())
	}
	if err := m.Err(); !errors.Is(err, audit.ErrBadCounter) {
		t.Fatalf("violation = %v, want ErrBadCounter", err)
	}
	if _, err := audit.VerifyPath(context.Background(), e.dir, audit.StreamOptions{VerifyOptions: audit.VerifyOptions{Pub: e.encl.PublicKey()}}); err != nil {
		t.Fatalf("VerifyPath refuses the compacted set: %v", err)
	}
}

// TestMirrorDetectsRollback is the e2e attack: a single shard of a live
// sharded server is rolled back to an earlier commit point behind the
// log's back, and the link is dropped so the mirror reconnects into the
// tampered state. The mirror must report ErrBadCounter within roughly the
// restart grace (well under a second), without any live counter quorum.
func TestMirrorDetectsRollback(t *testing.T) {
	e := newMirrorEnv(t, 4, 30*time.Millisecond)
	const victim = 2
	e.appendShard(victim, 20)
	e.append(20)

	violated := make(chan error, 1)
	cfg := e.mirrorConfig()
	cfg.OnViolation = func(err error) {
		select {
		case violated <- err:
		default:
		}
	}
	m, err := Start(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop(context.Background())
	waitCaught(t, m, 40)

	// Roll the victim shard's file back to its state as of an earlier
	// commit point, then append more so the earlier prefix really is
	// superseded state the attacker is hiding.
	path := filepath.Join(e.dir, audit.ShardName("git", victim)+".lseal")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	rollbackTo := fi.Size()
	e.appendShard(victim, 10)
	waitCaught(t, m, 50)

	start := time.Now()
	if err := os.Truncate(path, rollbackTo); err != nil {
		t.Fatal(err)
	}
	e.feed.DisconnectAll()

	select {
	case err := <-violated:
		if !errors.Is(err, audit.ErrBadCounter) {
			t.Fatalf("violation = %v, want ErrBadCounter", err)
		}
		t.Logf("rollback detected in %v: %v", time.Since(start), err)
	case <-time.After(15 * time.Second):
		t.Fatalf("rollback never detected; report %+v", m.Report())
	}
	if m.Err() == nil {
		t.Fatal("violation did not latch")
	}
	// The loop must stop once the mirror's attestation is void.
	select {
	case <-m.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("mirror loop did not stop after violation")
	}
}

// TestMirrorRefusesServerBehind is the server-behind row of the set-rule
// table end to end: a mirror verifies shard 0 to seq 6 and stops; the shard's
// last batch is cut, the server recovers at seq 5 (RecoverMaxLag 1, the
// counter lag re-anchored) behind a new feed, and the mirror restarted from
// its checkpoint reconnects. Recovery rewrote the sidecar with one manifest
// as long as the one the mirror had resumed from, so the feed grants the
// sidecar's resume claim and the mirror refuses its proof: the mirror must
// reconnect with no claim on the lane rather than wait on bytes the feed
// will not send, and then refuse the shard for not holding seq 6 again.
func TestMirrorRefusesServerBehind(t *testing.T) {
	e := newMirrorEnv(t, 2, time.Hour)
	e.appendShard(0, 5)
	path := filepath.Join(e.dir, audit.ShardName("git", 0)+".lseal")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	e.appendShard(0, 1)
	cfg := e.mirrorConfig()
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "mirror.ckpt")
	m, err := Start(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitCaught(t, m, 6)
	if err := m.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	e.feed.Close()
	if err := e.log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()); err != nil {
		t.Fatal(err)
	}
	rec := e.recover(1)
	defer rec.Close()
	feed, err := NewFeed(rec)
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go feed.Serve(ln)
	cfg.Addr = ln.Addr().String()
	m, err = Start(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop(context.Background())
	select {
	case <-m.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("no verdict on the server behind the mirror: %+v", m.Report())
	}
	if err := m.Err(); !errors.Is(err, audit.ErrBadCounter) || !strings.Contains(err.Error(), "does not hold seq=6") {
		t.Fatalf("violation = %v, want shard 0 refused for not holding seq 6", err)
	}
}

// TestMirrorSurvivesTrim runs a trim while the mirror is attached: the
// feed must issue restart frames, the mirror must re-verify the rewritten
// files, and — because an honest rewrite re-signs with current counters —
// each shard's first commit point is signed above every counter verified on
// it, which excuses the replaced history without a violation.
func TestMirrorSurvivesTrim(t *testing.T) {
	e := newMirrorEnv(t, 2, 30*time.Millisecond)
	e.append(30)
	m, err := Start(context.Background(), e.mirrorConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop(context.Background())
	waitCaught(t, m, 30)

	e.call(func(env *asyncall.Env) error {
		script, err := e.log.DB().PrepareScript("DELETE FROM updates WHERE seq < 10")
		if err != nil {
			return err
		}
		plan, err := audit.PlanTrim(e.log.DB().Snapshot(), script)
		if err != nil {
			return err
		}
		if err := e.log.ApplyTrim(env, plan); err != nil {
			return err
		}
		return e.log.Compact(env)
	})
	e.append(10)

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := m.Err(); err != nil {
			t.Fatalf("trim caused violation: %v", err)
		}
		if r := m.Report(); r.Restarts > 0 && r.LagBytes == 0 && r.Connected {
			// Give the restart grace a beat past its end to
			// prove no late violation fires.
			time.Sleep(600 * time.Millisecond)
			if err := m.Err(); err != nil {
				t.Fatalf("late violation after trim: %v", err)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("mirror never resynced after trim: %+v", m.Report())
}

// TestMirrorFollowsDatabaseTrimsThenCompaction: a trim's database half
// changes no file, so to a live mirror K of them are nothing but the appends
// around them — no restart frame, no reconnect, every entry verified as it
// lands. The compaction that follows rewrites every file; the same mirror,
// never stopped, re-verifies the new images through restart frames without a
// violation and catches up with the server.
func TestMirrorFollowsDatabaseTrimsThenCompaction(t *testing.T) {
	e := newMirrorEnv(t, 2, 30*time.Millisecond)
	e.append(20)
	m, err := Start(context.Background(), e.mirrorConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop(context.Background())
	waitCaught(t, m, 20)

	stmts, err := e.log.DB().PrepareScript("DELETE FROM updates WHERE seq < 5")
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	for i := 0; i < k; i++ {
		e.append(10)
		plan, err := audit.PlanTrim(e.log.DB().Snapshot(), stmts)
		if err != nil {
			t.Fatal(err)
		}
		e.call(func(env *asyncall.Env) error { return e.log.ApplyTrim(env, plan) })
	}
	waitCaught(t, m, 20+10*k)
	if r := m.Report(); r.Restarts != 0 || r.Reconnects != 0 || r.TotalEntries != 20+10*k {
		t.Fatalf("after %d database trims: %d restarts, %d reconnects, %d entries; want none, none and all %d appended",
			k, r.Restarts, r.Reconnects, r.TotalEntries, 20+10*k)
	}

	e.call(e.log.Compact)
	e.append(5)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := m.Err(); err != nil {
			t.Fatalf("the compaction caused a violation: %v", err)
		}
		r := m.Report()
		if r.Restarts > 0 && r.LagBytes == 0 && r.Connected && e.log.PendingStaged() == 0 && r.TotalEntries == int(e.log.Seq()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mirror never followed the compaction: %+v (server at %d entries)", r, e.log.Seq())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A beat past the restart grace: no late violation.
	time.Sleep(600 * time.Millisecond)
	if err := m.Err(); err != nil {
		t.Fatalf("late violation after the compaction: %v", err)
	}
}

// TestFeedBackpressure attaches a subscriber that never reads: the feed
// must drop it within the write deadline instead of blocking the pump, and
// the appenders must never notice.
func TestFeedBackpressure(t *testing.T) {
	// A tight deadline so a stalled subscriber hits it quickly.
	setWriteTimeout(t, 200*time.Millisecond)
	e := newMirrorEnv(t, 2, time.Hour)
	conn := stalledSubscriber(t, e)
	defer conn.Close()
	// Enough data to overflow the kernel socket buffers: only then does the
	// pump's write block and the drop path have to fire.
	blob := strings.Repeat("x", 64<<10)
	for i := 0; i < 256; i++ {
		i := i
		e.call(func(env *asyncall.Env) error {
			return e.log.Append(env, uint64(i%5), "updates", i, "bulk", "main", fmt.Sprintf("b%d", i), blob)
		})
	}
	deadline := time.Now().Add(30 * time.Second)
	for e.feed.Subscribers() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled subscriber was never dropped")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFeedCloseUnblocksStalledPump: a pump blocked mid-write to a subscriber
// that never reads is released by Feed.Close at once, not at the write
// deadline.
func TestFeedCloseUnblocksStalledPump(t *testing.T) {
	e := newMirrorEnv(t, 1, time.Hour)
	sent := func() int64 {
		m, _ := telemetry.Get("audit.feed.sent.bytes")
		return m.Value
	}
	committed := func() (n int64) {
		for _, v := range e.log.Files() {
			n += v.CommittedSize()
		}
		return n
	}
	sent0 := sent()
	conn := stalledSubscriber(t, e)
	defer conn.Close()
	// Append until the pump stops short of the committed bytes: the socket
	// buffers are full and its write is blocked.
	blob := strings.Repeat("x", 64<<10)
	for i := 0; ; i++ {
		e.call(func(env *asyncall.Env) error {
			return e.log.Append(env, 0, "updates", i, "bulk", "main", fmt.Sprintf("b%d", i), blob)
		})
		if i%32 < 31 {
			continue
		}
		before := sent()
		time.Sleep(100 * time.Millisecond)
		if after := sent(); after == before && after-sent0 < committed() {
			break
		}
		if i > 1024 {
			t.Fatal("the pump never blocked on a subscriber that does not read")
		}
	}
	if n := e.feed.Subscribers(); n != 1 {
		t.Fatalf("%d subscribers attached, want the stalled one", n)
	}
	start := time.Now()
	e.feed.Close()
	if d := time.Since(start); d >= writeTimeout/2 {
		t.Fatalf("Close took %v with a pump blocked mid-write, want well under the %v write deadline", d, writeTimeout)
	}
	if n := e.feed.Subscribers(); n != 0 {
		t.Fatalf("%d subscribers left after Close", n)
	}
}

// stalledSubscriber attaches a subscriber that sends a valid hello and then
// never reads.
func stalledSubscriber(t *testing.T, e *mirrorEnv) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", e.addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameHello, marshalJSONFrame(helloMsg{Name: "git"})); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestMirrorFrameCommitsAfterOneCheck: a catch-up frame holding fifty
// batches costs the mirror one ECDSA check, on the frame's last signature
// record, after which all fifty commit points are absorbed and that last one
// is the resume claim. When that record's signature does not hold, the frame
// is a violation and nothing in it becomes a resume claim.
func TestMirrorFrameCommitsAfterOneCheck(t *testing.T) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := audit.WriteSyntheticLog(&buf, key, 50, 1); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	checks := func() int64 {
		m, _ := telemetry.Get("audit.verify.signatures")
		return m.Value
	}
	start := func() (*Mirror, *shardState) {
		m := &Mirror{cfg: Config{Name: "t", Pub: &key.PublicKey}}
		m.newSet(1)
		m.restartLocked(nil)
		return m, m.shards[0]
	}

	m, sh := start()
	before := checks()
	if err := m.handleFrame(frameData, append([]byte{0, 0}, img...)); err != nil {
		t.Fatal(err)
	}
	if n := checks() - before; sh.v.Batches() != 50 || n != 1 {
		t.Fatalf("%d commit points absorbed after %d ECDSA checks, want 50 after one", sh.v.Batches(), n)
	}
	if mem := m.set.Snapshot().Shards[0]; mem.Last == nil || mem.Last.Batches != 50 || mem.Last.Offset != int64(len(img)) || mem.MaxCounter != 50 {
		t.Fatalf("resume claim %+v (max counter %d), want the frame's last commit point", mem.Last, mem.MaxCounter)
	}

	// Two frames, the second ending in a signature record with a flipped S.
	m, sh = start()
	half := len(img) / 2
	if err := m.handleFrame(frameData, append([]byte{0, 0}, img[:half]...)); err != nil {
		t.Fatal(err)
	}
	claim, absorbed := m.set.Snapshot().Shards[0].Last, sh.v.Batches()
	bad := append([]byte{0, 0}, img[half:]...)
	bad[len(bad)-1] ^= 0xff
	err = m.handleFrame(frameData, bad)
	if !errors.Is(err, audit.ErrTampered) || !strings.Contains(err.Error(), "signature record 49: signature invalid") {
		t.Fatalf("frame ending in an invalid signature: %v", err)
	}
	mem := m.set.Snapshot().Shards[0]
	if mem.Last != claim || claim == nil || claim.Batches != absorbed {
		t.Fatalf("resume claim moved to %+v on a failed frame", mem.Last)
	}
	if mem.MaxCounter != 49 {
		t.Fatalf("commit points up to counter %d absorbed, want the 49 under valid signatures", mem.MaxCounter)
	}
}

// scriptedFeed is a feed that serves each session from a script: it reads
// the mirror's hello, answers with ack, sends frames and then holds the link
// until the mirror drops it. It stands in for a compromised server choosing
// what to claim about the set.
func scriptedFeed(ack ackMsg, frames ...frame) func(context.Context) (net.Conn, error) {
	return func(context.Context) (net.Conn, error) {
		mirrorSide, feedSide := net.Pipe()
		go func() {
			defer feedSide.Close()
			if _, _, err := readFrame(feedSide); err != nil {
				return
			}
			if writeFrame(feedSide, frameAck, marshalJSONFrame(ack)) != nil {
				return
			}
			for _, fr := range frames {
				if writeFrame(feedSide, fr.typ, fr.payload) != nil {
					return
				}
			}
			io.Copy(io.Discard, feedSide)
		}()
		return mirrorSide, nil
	}
}

// latched starts a mirror on a scripted feed and waits for the violation it
// must latch.
func latched(t *testing.T, pub *ecdsa.PublicKey, dial func(context.Context) (net.Conn, error)) (*Mirror, error) {
	t.Helper()
	m, err := Start(context.Background(), Config{Name: "git", Pub: pub, Dial: dial, BackoffMin: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-m.Done():
	case <-time.After(10 * time.Second):
		m.Stop(context.Background())
		t.Fatalf("no violation latched; report %+v", m.Report())
	}
	return m, m.Err()
}

// TestMirrorRefusesUnmanifestedAck: every persisted set has its manifest
// sidecar, so a feed that calls the set unmanifested is not choosing a
// layout — it is withholding the evidence that binds the shards.
func TestMirrorRefusesUnmanifestedAck(t *testing.T) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, err = latched(t, &key.PublicKey, scriptedFeed(ackMsg{Name: "git", ShardsTotal: 2, Manifested: false}))
	if !errors.Is(err, audit.ErrTampered) {
		t.Fatalf("violation = %v, want ErrTampered", err)
	}
}

// TestMirrorRefusesShardCountBelowManifests: a feed that acks one shard in
// front of a sidecar whose manifests attest two is hiding a shard; the
// mirror's manifest replay expects the feed's count and latches.
func TestMirrorRefusesShardCountBelowManifests(t *testing.T) {
	e := newMirrorEnv(t, 2, time.Hour)
	sidecar, err := os.ReadFile(filepath.Join(e.dir, audit.ManifestFileName("git")))
	if err != nil {
		t.Fatal(err)
	}
	_, err = latched(t, e.encl.PublicKey(), scriptedFeed(ackMsg{Name: "git", ShardsTotal: 1, Manifested: true},
		frame{frameManifest, sidecar}))
	if !errors.Is(err, audit.ErrTampered) || !strings.Contains(err.Error(), "attests 2 shards, set has 1") {
		t.Fatalf("violation = %v, want ErrTampered for a manifest attesting 2 shards", err)
	}
}

// TestMirrorNeverCaughtUpWithoutManifest: a mirror level with the feed has
// verified at least the set's creation manifest. One that has verified none
// — the feed streams a valid shard and reports an empty sidecar — never
// counts as caught up, and latches the missing sidecar.
func TestMirrorNeverCaughtUpWithoutManifest(t *testing.T) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := audit.WriteSyntheticLog(&buf, key, 8, 4); err != nil {
		t.Fatal(err)
	}
	tail := marshalJSONFrame(tailMsg{Shards: []int64{int64(buf.Len())}})
	m, err := latched(t, &key.PublicKey, scriptedFeed(ackMsg{Name: "git", ShardsTotal: 1, Manifested: true},
		frame{frameData, dataPayload(0, buf.Bytes())}, frame{frameTail, tail}))
	if !errors.Is(err, audit.ErrTampered) {
		t.Fatalf("violation = %v, want ErrTampered", err)
	}
	if r := m.Report(); r.CaughtUp || r.TotalEntries != 8 || r.LagBytes != 0 {
		t.Fatalf("report %+v, want all 8 entries verified, no lag, and never caught up", r)
	}
}
