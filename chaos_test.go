package libseal_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	. "libseal"
	"libseal/internal/asyncall"
	"libseal/internal/bench"
	"libseal/internal/core"
	"libseal/internal/faultinject"
	"libseal/internal/httpparse"
	"libseal/internal/rote"
	"libseal/internal/telemetry"
	"libseal/internal/testutil"
)

// The chaos soak drives the full stack — client -> Apache proxy -> LibSEAL ->
// Git backend — under a scripted fault schedule, then restarts it with
// recovery (what libseal-server does on a directory holding a log set) and
// asserts the paper's robustness claims: no committed
// audit entry is lost, no integrity violation goes undetected, and the
// request path stays bounded while the counter quorum is unreachable.
//
// The schedule is deterministic from its seed: faults trigger on per-target
// operation counts, and the single sequential client makes those counts
// reproducible (see TestChaosScheduleDeterministic).

const chaosSeed = 42

// chaosAppendWrite returns the file-write index of audit append k: the log
// magic is write 0 and each append writes its entry and signature records in
// one write.
func chaosAppendWrite(k int) int { return 1 + k }

func chaosRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Timeout:     300 * time.Millisecond,
		Retries:     1,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		JitterSeed:  chaosSeed,
	}
}

func chaosScenario() FaultScenario {
	return FaultScenario{Seed: chaosSeed, Rules: []FaultRule{
		// Counter node 0 dies for good after its second operation — within
		// the group's f = 1 budget, so the quorum must absorb it.
		faultinject.CrashNode(0, 2, 1<<30),
		// A latency spike on the proxy-to-backend leg.
		faultinject.DelayLink("git-backend:80", 4, 12, 20*time.Millisecond),
		// The crash: the tenth audit append (write 10) tears two bytes into
		// its entry record and wedges the log's file handle, the on-disk image
		// a power cut leaves.
		faultinject.TornWrite("git-shard0.lseal", chaosAppendWrite(9)).AtByte(2),
	}}
}

// runChaosFaultPhase executes run 1 of the soak: nine pushes under the fault
// schedule (including a two-push window with the counter quorum dead), then
// the torn-write crash on push ten. It returns the injector trace and the
// stats at the time of the crash.
func runChaosFaultPhase(t *testing.T, dir string, platform *Platform, group *CounterGroup) ([]string, core.Stats) {
	t.Helper()
	in := chaosScenario().Build()
	in.AttachGroup(group)
	group.SetRetryPolicy(chaosRetryPolicy())
	st, err := bench.NewGitStack(bench.StackOptions{
		Mode:     bench.ModeDisk,
		Dir:      dir,
		Platform: platform,
		Group:    group,
		Seal: []Option{
			WithFaultInjector(in),
			WithAnchorTimeout(300 * time.Millisecond),
			WithDegradedLimit(4),
		},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Net.SetLinkFault("git-backend:80", in.LinkFault("git-backend:80"))

	client := st.NewClient(true)
	defer client.Close()
	push := func(op, cid string) error {
		rsp, err := client.Do(httpparse.NewRequest("POST", "/git/x/git-receive-pack", []byte(op+" main "+cid)))
		if err != nil {
			return err
		}
		if rsp.Status != 200 {
			t.Fatalf("push %s: status %d", cid, rsp.Status)
		}
		return nil
	}

	// Pushes 1-6 ride out the node-0 crash and the backend latency spike.
	if err := push("create", "c1"); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 6; i++ {
		if err := push("update", "c"+string(rune('0'+i))); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}

	// Kill a second counter node: with node 0 already dead the quorum is
	// unreachable. Appends must keep succeeding in degraded mode, and each
	// request must stay bounded (a 300 ms anchor attempt at most, not a
	// stall).
	st.Group.Nodes()[1].Fail()
	for i := 7; i <= 8; i++ {
		start := time.Now()
		if err := push("update", "c"+string(rune('0'+i))); err != nil {
			t.Fatalf("degraded push %d: %v", i, err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("degraded push %d blocked for %v", i, elapsed)
		}
	}
	if status := st.Seal.AuditStatus(); !status.Degraded || status.PendingAnchor != 2 {
		t.Fatalf("status under dead quorum = %+v", status)
	}

	// The quorum heals: the next append carrying a probe re-anchors the whole
	// backlog. A probe is due one anchor timeout after the failed attempt;
	// the wait is a whole manifest interval, so that append also writes the
	// set's next manifest on every run and the fault trace stays the same.
	st.Group.Nodes()[1].Recover()
	time.Sleep(500 * time.Millisecond)
	if err := push("update", "c9"); err != nil {
		t.Fatal(err)
	}
	if status := st.Seal.AuditStatus(); status.Degraded || status.Gaps != 1 {
		t.Fatalf("status after heal = %+v", status)
	}

	// Push ten hits the torn write: the machine "dies" mid-append and the
	// client sees a failure, so the entry was never acknowledged.
	if err := push("update", "cA"); err == nil {
		t.Fatal("push over the torn append reported success")
	}
	stats := st.Seal.StatsSnapshot()
	if stats.Tuples != 9 {
		t.Fatalf("tuples at crash = %d, want 9", stats.Tuples)
	}
	return in.Trace(), stats
}

func TestChaosSoakCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	platform := NewPlatform()
	group, err := NewCounterGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	trace, stats := runChaosFaultPhase(t, dir, platform, group)
	var torn bool
	for _, line := range trace {
		torn = torn || strings.Contains(line, "torn-write")
	}
	if !torn {
		t.Fatalf("trace missing the torn write: %v", trace)
	}

	// Restart: the operator replaced the dead counter node and relaunched on
	// the same platform, recovering the persisted log.
	for _, n := range group.Nodes() {
		n.SetFaultHook(nil)
	}
	group.SetRetryPolicy(chaosRetryPolicy())
	st, err := bench.NewGitStack(bench.StackOptions{
		Mode:     bench.ModeDisk,
		Dir:      dir,
		Platform: platform,
		Group:    group,
		Seal: []Option{
			WithRecovery(1),
			WithAnchorTimeout(300 * time.Millisecond),
			WithDegradedLimit(4),
		},
	}, 0)
	if err != nil {
		t.Fatalf("recovery restart: %v", err)
	}
	defer st.Close()

	// Claim 1: zero committed entries lost. Every acknowledged append — the
	// degraded ones included — survived the crash; the torn entry, never
	// acknowledged, is gone.
	if got := st.Seal.Log().Seq(); got != uint64(stats.Tuples) {
		t.Fatalf("recovered %d entries, committed %d", got, stats.Tuples)
	}

	// Claim 2: violations stay detectable after recovery. The provider rolls
	// a branch back; the recovered log still holds the update history that
	// convicts it.
	client := st.NewClient(true)
	defer client.Close()
	do := func(req *httpparse.Request) *httpparse.Response {
		t.Helper()
		rsp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return rsp
	}
	do(httpparse.NewRequest("POST", "/git/x/git-receive-pack", []byte("create main r1")))
	do(httpparse.NewRequest("POST", "/git/x/git-receive-pack", []byte("update main r2")))
	st.Backend.InjectRollback("x", "main", "r1")
	do(httpparse.NewRequest("GET", "/git/x/info/refs", nil))
	req := httpparse.NewRequest("GET", "/git/x/info/refs", nil)
	req.Header.Set(CheckHeader, "1")
	rsp := do(req)
	if got := rsp.Header.Get(CheckResultHeader); !strings.Contains(got, "git-soundness") {
		t.Fatalf("rollback after recovery not detected: %s = %q", CheckResultHeader, got)
	}
	if len(st.Seal.Violations()) == 0 {
		t.Fatal("no violation recorded")
	}

	// Claim 3: the surviving evidence passes strict client-side verification
	// — chain, enclave signature and counter freshness, no lag allowance.
	finalSeq := st.Seal.Log().Seq()
	pub := st.Enclave.PublicKey()
	st.Seal.Close()
	rep, err := Verify(dir, VerifyStreamOptions{VerifyOptions: VerifyOptions{Pub: pub, Protector: group}})
	if err != nil {
		t.Fatalf("strict verify of recovered log: %v", err)
	}
	if uint64(rep.TotalEntries) != finalSeq {
		t.Fatalf("verified %d entries, log held %d", rep.TotalEntries, finalSeq)
	}
}

// TestChaosRollingRestartSoak rolls an amnesic restart through every counter
// node, one at a time, while two workers keep pushing. Each restarted node
// refuses service until it re-syncs from a read quorum of its peers, so the
// remaining 3 of n = 4 nodes carry the increments, no adopted value regresses
// below what was committed before the restart, and the final log passes
// strict verification with counter freshness.
func TestChaosRollingRestartSoak(t *testing.T) {
	dir := t.TempDir()
	platform := NewPlatform()
	group, err := NewCounterGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	group.SetRetryPolicy(chaosRetryPolicy())
	st, err := bench.NewGitStack(bench.StackOptions{
		Mode:     bench.ModeDisk,
		Dir:      dir,
		Platform: platform,
		Group:    group,
		Seal:     []Option{WithAnchorTimeout(time.Second), WithBatching(4, 0)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	setup := st.NewClient(true)
	if rsp, err := setup.Do(httpparse.NewRequest("POST", "/git/x/git-receive-pack", []byte("create main c0"))); err != nil || rsp.Status != 200 {
		t.Fatalf("create push: %v (rsp %+v)", err, rsp)
	}
	setup.Close()
	var pushes atomic.Int64
	pushes.Add(1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		client := st.NewClient(true)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cid := fmt.Sprintf("c%d-%d", w, i)
				rsp, err := client.Do(httpparse.NewRequest("POST", "/git/x/git-receive-pack", []byte("update main "+cid)))
				if err != nil {
					t.Errorf("push %s during rolling restart: %v", cid, err)
					return
				}
				if rsp.Status != 200 {
					t.Errorf("push %s: status %d", cid, rsp.Status)
					return
				}
				pushes.Add(1)
			}
		}()
	}

	for id, n := range group.Nodes() {
		before, err := group.Read("git")
		if err != nil {
			t.Errorf("read before restarting node %d: %v", id, err)
			break
		}
		n.RestartAmnesiac()
		// Let the workers hammer the depleted group for a moment: the
		// amnesic node must refuse to serve, not hand out stale acks.
		time.Sleep(20 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		for {
			if err = n.Resync(ctx); err == nil {
				break
			}
			if ctx.Err() != nil {
				t.Errorf("node %d never re-synced: %v", id, err)
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		cancel()
		if !n.Synced() {
			break
		}
		if got := n.Value("git"); got < before {
			t.Errorf("node %d re-synced to %d, below the committed %d", id, got, before)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	finalSeq := st.Seal.Log().Seq()
	if finalSeq != uint64(pushes.Load()) {
		t.Fatalf("log holds %d entries, %d pushes acknowledged", finalSeq, pushes.Load())
	}
	pub := st.Enclave.PublicKey()
	st.Seal.Close()
	rep, err := Verify(dir, VerifyStreamOptions{VerifyOptions: VerifyOptions{Pub: pub, Protector: group}})
	if err != nil {
		t.Fatalf("strict verify after rolling restarts: %v", err)
	}
	if uint64(rep.TotalEntries) != finalSeq {
		t.Fatalf("verified %d entries, log held %d", rep.TotalEntries, finalSeq)
	}
}

// TestChaosDegradedProbeLifecycle walks a degraded episode through its life
// under live traffic, with a stuck quorum: two of the four counter nodes
// answer only after 10 s, far past the 400 ms anchor timeout. The first push
// after the quorum sticks pays the whole timeout and opens the episode. The
// pushes after it commit under the stale anchor without asking the quorum,
// so they are degraded and fast. Once the nodes heal and a probe is due, the
// next push carries it, closes the episode and re-anchors the backlog. With
// degraded mode off, every append asks the quorum and fails closed.
func TestChaosDegradedProbeLifecycle(t *testing.T) {
	const anchorTimeout = 400 * time.Millisecond
	for _, limit := range []int{16, 0} {
		t.Run(fmt.Sprintf("DegradedLimit=%d", limit), func(t *testing.T) {
			st, err := bench.NewGitStack(bench.StackOptions{
				Mode:     bench.ModeDisk,
				Dir:      t.TempDir(),
				Platform: NewPlatform(),
				Seal:     []Option{WithAnchorTimeout(anchorTimeout), WithDegradedLimit(limit)},
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			in := faultinject.New(chaosSeed)
			in.AttachGroup(st.Group)
			stick := func() {
				for id := 0; id < 2; id++ {
					target := fmt.Sprintf("node:%d", id)
					in.Add(faultinject.SlowNode(id, in.Count(target), 1<<30, 10*time.Second))
				}
			}
			roundTrips := func() int64 {
				m, _ := telemetry.Get("rote.round_trips")
				return m.Value
			}
			client := st.NewClient(true)
			defer client.Close()
			push := func(op, cid string) time.Duration {
				t.Helper()
				start := time.Now()
				rsp, err := client.Do(httpparse.NewRequest("POST", "/git/x/git-receive-pack", []byte(op+" main "+cid)))
				if err != nil {
					t.Fatalf("push %s: %v", cid, err)
				}
				if rsp.Status != 200 {
					t.Fatalf("push %s: status %d", cid, rsp.Status)
				}
				return time.Since(start)
			}

			push("create", "c1")
			if status := st.Seal.AuditStatus(); status.Degraded {
				t.Fatalf("status after a healthy push = %+v", status)
			}
			stick()

			if limit == 0 {
				// Nothing buffers: each append waits out the anchor timeout
				// and fails with the quorum's error.
				for i, cid := range []string{"c2", "c3"} {
					rt := roundTrips()
					start := time.Now()
					err := st.Bridge.Call(func(env *asyncall.Env) error {
						return st.Seal.Log().Append(env, 0, "updates", 2+i, "x", "main", cid, "update")
					})
					if !errors.Is(err, rote.ErrNoQuorum) {
						t.Fatalf("append %s without degraded mode: %v, want ErrNoQuorum", cid, err)
					}
					if d := time.Since(start); d < anchorTimeout {
						t.Fatalf("append %s failed after %v, before the %v anchor timeout", cid, d, anchorTimeout)
					}
					if roundTrips() == rt {
						t.Fatalf("append %s failed without asking the quorum", cid)
					}
				}
				if got := st.Seal.Log().Seq(); got != 1 {
					t.Fatalf("seq = %d, want 1", got)
				}
				return
			}

			// The first push under the stuck quorum pays the anchor timeout
			// and opens the episode.
			if d := push("update", "c2"); d < anchorTimeout {
				t.Fatalf("push c2 took %v, want the whole %v anchor timeout", d, anchorTimeout)
			}
			if status := st.Seal.AuditStatus(); !status.Degraded || status.PendingAnchor != 1 {
				t.Fatalf("status after the failed anchor = %+v", status)
			}

			// No probe is due: the next pushes commit under the stale anchor
			// without a round trip, so they are degraded AND fast.
			for _, cid := range []string{"c3", "c4"} {
				rt := roundTrips()
				if d := push("update", cid); d >= 100*time.Millisecond {
					t.Fatalf("degraded push %s took %v, want well under the %v anchor timeout", cid, d, anchorTimeout)
				}
				if got := roundTrips(); got != rt {
					t.Fatalf("degraded push %s made %d counter round trips, want none", cid, got-rt)
				}
			}
			if status := st.Seal.AuditStatus(); !status.Degraded || status.PendingAnchor != 3 {
				t.Fatalf("status with no probe due = %+v", status)
			}

			// The nodes heal. Once a probe is due — one anchor timeout after
			// the failed attempt — the next push carries it, closes the
			// episode and re-anchors the whole backlog.
			for _, n := range st.Group.Nodes() {
				n.SetFaultHook(nil)
			}
			time.Sleep(anchorTimeout)
			push("update", "c5")
			if status := st.Seal.AuditStatus(); status.Degraded || status.Gaps != 1 {
				t.Fatalf("status after heal = %+v", status)
			}
			if got := st.Seal.Log().Seq(); got != 5 {
				t.Fatalf("seq = %d, want 5", got)
			}
		})
	}
}

// TestChaosOverloadShedding stalls audit-log disk writes while eight clients
// push at once against a two-entry staging budget. Admission control must
// shed the overflow with ErrOverloaded instead of queueing without bound, and
// every acknowledged push — and only those — must reach the verified log.
func TestChaosOverloadShedding(t *testing.T) {
	dir := t.TempDir()
	group, err := NewCounterGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	in := FaultScenario{Seed: chaosSeed, Rules: []FaultRule{
		// Every log write from the first one on crawls: the group-commit
		// pipeline stays full while the burst arrives.
		faultinject.StallWrites("git-shard0.lseal", 1, 1<<30, 300*time.Millisecond),
	}}.Build()
	in.AttachGroup(group)
	group.SetRetryPolicy(chaosRetryPolicy())
	st, err := bench.NewGitStack(bench.StackOptions{
		Mode:     bench.ModeDisk,
		Dir:      dir,
		Platform: NewPlatform(),
		Group:    group,
		Seal: []Option{
			WithFaultInjector(in),
			WithAnchorTimeout(time.Second),
			WithBatching(2, 0),
			WithAdmission(2, 30*time.Millisecond),
		},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	shed0, _ := telemetry.Get("audit.admission.shed")
	const burst = 8
	var ok, failed atomic.Int64
	clients := make([]*bench.Client, burst)
	for i := range clients {
		clients[i] = st.NewClient(true)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, client := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.Close()
			<-start
			rsp, err := client.Do(httpparse.NewRequest("POST", "/git/x/git-receive-pack", []byte(fmt.Sprintf("create b%d x%d", i, i))))
			if err == nil && rsp.Status == 200 {
				ok.Add(1)
			} else {
				failed.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()

	shed1, _ := telemetry.Get("audit.admission.shed")
	if shed1.Value <= shed0.Value {
		t.Fatalf("no appends shed under a stalled disk (shed %d -> %d, ok %d, failed %d)",
			shed0.Value, shed1.Value, ok.Load(), failed.Load())
	}
	if failed.Load() == 0 {
		t.Fatal("all pushes succeeded against a full staging budget")
	}
	if got := st.Seal.Log().Seq(); got != uint64(ok.Load()) {
		t.Fatalf("log holds %d entries, %d pushes acknowledged", got, ok.Load())
	}

	// Shed entries must be invisible to the verifier: the surviving chain
	// holds exactly the acknowledged pushes.
	pub := st.Enclave.PublicKey()
	st.Seal.Close()
	rep, err := Verify(dir, VerifyStreamOptions{VerifyOptions: VerifyOptions{Pub: pub, Protector: group}})
	if err != nil {
		t.Fatalf("strict verify after shedding: %v", err)
	}
	if uint64(rep.TotalEntries) != uint64(ok.Load()) {
		t.Fatalf("verified %d entries, %d pushes acknowledged", rep.TotalEntries, ok.Load())
	}
}

// TestChaosScheduleDeterministic replays the fault phase twice from the same
// seed and asserts both runs fired the same faults and committed the same
// entries. Per-target firing order is deterministic; the global interleaving
// across targets is not (node replies race link writes), so the traces are
// compared as sorted sets.
func TestChaosScheduleDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos determinism soak skipped in -short mode")
	}
	run := func() ([]string, core.Stats) {
		group, err := NewCounterGroup(1)
		if err != nil {
			t.Fatal(err)
		}
		return runChaosFaultPhase(t, t.TempDir(), NewPlatform(), group)
	}
	trace1, stats1 := run()
	trace2, stats2 := run()
	if stats1.Tuples != stats2.Tuples || stats1.Pairs != stats2.Pairs {
		t.Fatalf("stats diverge: %+v vs %+v", stats1, stats2)
	}
	sort.Strings(trace1)
	sort.Strings(trace2)
	if len(trace1) != len(trace2) {
		t.Fatalf("traces diverge in length:\n%v\n%v", trace1, trace2)
	}
	for i := range trace1 {
		if trace1[i] != trace2[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, trace1[i], trace2[i])
		}
	}
}

// TestChaosMirrorLinkDrops soaks the replication feed under repeated link
// failures: a live mirror follows a server while workloads land, and between
// rounds every feed connection is severed server-side. The mirror must
// reconnect through its backoff dialer, resume from its verified
// prefix (checkpoint), and finish with zero violations and full agreement
// with the offline verifier. This is the "untrusted plumbing" half of the
// mirror's threat model: a flaky (or adversarial) link may slow the mirror
// down but must never corrupt its verdict.
func TestChaosMirrorLinkDrops(t *testing.T) {
	if testing.Short() {
		t.Skip("mirror link-drop soak skipped in -short mode")
	}
	certs, err := testutil.NewCertEnv("svc")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seal, feed, addr, group := OpenMirroredServer(t, dir, certs)
	defer feed.Close()
	defer seal.Close()

	violations := make(chan error, 8)
	m, err := StartMirror(context.Background(), MirrorConfig{
		Addr:           addr,
		Name:           "git",
		Pub:            seal.Bridge().Enclave().PublicKey(),
		CheckpointPath: filepath.Join(t.TempDir(), "mirror.ckpt"),
		BackoffMin:     5 * time.Millisecond,
		RestartGrace:   time.Second,
		OnViolation:    func(err error) { violations <- err },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop(context.Background())

	const rounds = 5
	for round := 0; round < rounds; round++ {
		DriveGitWorkload(t, seal, certs)
		s := WaitMirrorSynced(t, m, seal)
		// Sever every feed connection server-side — the mirror is fully
		// synced and attached, so the drop provably kills its session — then
		// hold until it has re-established through backoff before the next
		// round piles on.
		feed.DisconnectAll()
		deadline := time.Now().Add(15 * time.Second)
		for {
			if st := m.Report(); st.Reconnects > s.Reconnects && st.Connected {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("mirror never re-established after drop %d: %+v", round, m.Report())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	s := WaitMirrorSynced(t, m, seal)
	if s.Reconnects < rounds {
		t.Fatalf("mirror reconnected %d times across %d link drops", s.Reconnects, rounds)
	}
	select {
	case verr := <-violations:
		t.Fatalf("link drops produced a violation: %v", verr)
	default:
	}
	if err := m.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Offline ground truth: the mirror's live verdict must match a cold
	// verification of the very same files.
	if err := seal.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyContext(context.Background(), dir, VerifyStreamOptions{
		VerifyOptions: VerifyOptions{Pub: seal.Bridge().Enclave().PublicKey(), Protector: group},
	})
	if err != nil {
		t.Fatalf("offline Verify after link-drop soak: %v", err)
	}
	if rep.TotalEntries != s.TotalEntries {
		t.Fatalf("offline verifier sees %d entries, mirror verified %d", rep.TotalEntries, s.TotalEntries)
	}
}
