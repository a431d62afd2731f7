package libseal

import (
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"libseal/internal/testutil"
)

// openMirroredServer builds a sharded disk-mode instance through the public
// facade and exposes its audit log with ServeAuditFeed.
func openMirroredServer(t *testing.T, dir string, certs *testutil.CertEnv) (*LibSEAL, *MirrorFeed, string, *CounterGroup) {
	t.Helper()
	platform := NewPlatform()
	encl, err := platform.Launch(EnclaveConfig{Code: []byte("mirror-facade-test"), MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	bridge, err := NewBridge(encl, BridgeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bridge.Close)
	group, err := NewCounterGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	// No scheduled checks: periodic trimming would rewrite shard files and
	// legitimately cold-restart the mirror, which is TestMirrorSurvivesTrim's
	// territory — this test pins the no-rescan resume path. The epoch-
	// manifest cadence rides the write path, so manifests still flow.
	seal, err := Open(bridge,
		WithModule(GitModule()),
		WithTLS(TLSConfig{Cert: certs.Cert, Key: certs.Key}),
		WithAuditDisk(dir),
		WithAuditShards(2),
		WithManifestInterval(30*time.Millisecond),
		WithProtector(group),
	)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	feed, err := ServeAuditFeed(seal, ln)
	if err != nil {
		t.Fatal(err)
	}
	return seal, feed, ln.Addr().String(), group
}

func waitMirrorCaught(t *testing.T, m *Mirror, wantEntries int) *Report {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if err := m.Err(); err != nil {
			t.Fatalf("mirror violation: %v", err)
		}
		r := m.Report()
		if r.CaughtUp && r.LagBytes == 0 && r.Connected && r.TotalEntries >= wantEntries {
			return r
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("mirror never caught up: %+v", m.Report())
	return nil
}

// waitMirrorSynced waits until the mirror has verified exactly the server's
// durable entry count, with nothing staged — trailing group-commit flushes
// land after a workload returns, so "caught up at some tail" is not yet
// "verified everything the server will commit".
func waitMirrorSynced(t *testing.T, m *Mirror, seal *LibSEAL) *Report {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if err := m.Err(); err != nil {
			t.Fatalf("mirror violation: %v", err)
		}
		r := m.Report()
		want := int(seal.Log().Seq())
		if seal.Log().PendingStaged() == 0 && r.TotalEntries == want &&
			r.CaughtUp && r.LagBytes == 0 && r.Connected {
			return r
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("mirror never synced: %+v (server seq %d)", m.Report(), seal.Log().Seq())
	return nil
}

// TestMirrorFacadeResumeAcrossRestart runs live mirroring end to end through
// the public facade: a real Git workload on a sharded disk-mode server with
// the feed attached, a mirror that follows it, is stopped, misses a second
// workload, and resumes from its checkpoint — without a cold rescan and
// without a violation. Run under -race in CI.
func TestMirrorFacadeResumeAcrossRestart(t *testing.T) {
	certs, err := testutil.NewCertEnv("svc")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seal, feed, addr, group := openMirroredServer(t, dir, certs)
	defer feed.Close()
	defer seal.Close()

	driveGitWorkload(t, seal, certs)

	cfg := MirrorConfig{
		Addr:            addr,
		Name:            "git",
		Pub:             seal.Bridge().Enclave().PublicKey(),
		CheckpointPath:  filepath.Join(t.TempDir(), "mirror.ckpt"),
		CheckpointEvery: time.Millisecond,
		BackoffMin:      10 * time.Millisecond,
		RestartGrace:    500 * time.Millisecond,
	}
	m1, err := StartMirror(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1 := waitMirrorCaught(t, m1, 1)
	if err := m1.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A second workload lands while the mirror is down.
	driveGitWorkload(t, seal, certs)

	m2, err := StartMirror(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop(context.Background())
	r := waitMirrorSynced(t, m2, seal)
	if !r.Live || !r.Resumed {
		t.Fatalf("Report: Live=%v Resumed=%v, want a resumed live mirror", r.Live, r.Resumed)
	}
	if r.Restarts != 0 {
		t.Fatalf("resume caused %d cold restarts, want 0", r.Restarts)
	}
	if r.TotalEntries <= s1.TotalEntries {
		t.Fatalf("resumed mirror did not advance: %d -> %d entries", s1.TotalEntries, r.TotalEntries)
	}
	if err := m2.Err(); err != nil {
		t.Fatalf("resumed mirror reported violation: %v", err)
	}

	// The offline verifier and the live mirror must agree on the log.
	if err := seal.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyContext(context.Background(), dir, VerifyStreamOptions{
		VerifyOptions: VerifyOptions{Pub: cfg.Pub, Protector: group},
	})
	if err != nil {
		t.Fatalf("offline Verify after mirroring: %v", err)
	}
	if rep.TotalEntries != r.TotalEntries {
		t.Fatalf("offline verifier sees %d entries, mirror verified %d", rep.TotalEntries, r.TotalEntries)
	}
}
