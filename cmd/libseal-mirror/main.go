// Command libseal-mirror runs a live audit-log follower: it connects to a
// libseal-server's replication feed (-mirror-addr on the server side) and
// continuously re-verifies the log as it grows — hash chain, per-batch
// enclave signatures, epoch-manifest replay, the set rule — holding nothing
// but the enclave's public key. The feed is untrusted plumbing: a
// compromised server can withhold bytes (bounded by -max-lag) but cannot make
// tampered or rolled-back bytes verify.
//
// The mirror persists what it has verified in its state file (-checkpoint):
// each shard's last verified commit point and highest counter, the claims
// still waiting and the manifest position. A restarted mirror continues from
// its verified prefix instead of rescanning, after re-proving each resume
// claim against the server's records, and still holds the feed to every
// claim that was waiting. A state file of an older format is not adopted:
// the mirror starts cold. A state file that cannot be written at shutdown is
// logged and exits non-zero. A detected violation latches, prints, and exits
// non-zero: from that point the log's attestation is void and the evidence
// should be preserved.
//
// Precondition: the mirrored set has a rollback protector (every disk set
// libseal-server builds has one, its counter group). Without one a
// compaction's counters do not move, nothing tells its image from a cut one,
// and the mirror refuses the first compaction as a rollback.
//
// Usage:
//
//	libseal-mirror -addr host:9443 -service git -pub audit/enclave.pub
//	libseal-mirror -addr host:9443 -service git -pub enclave.pub \
//	    -checkpoint mirror.ckpt -max-lag 16777216 -status-every 10s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"libseal"
	"libseal/internal/pki"
)

func main() {
	addr := flag.String("addr", "", "server replication feed address (libseal-server -mirror-addr)")
	service := flag.String("service", "git", "service whose log to mirror (the log-set name)")
	pubPath := flag.String("pub", "", "path to the enclave's PEM public key (enclave.pub) — the mirror's only trust anchor")
	ckptPath := flag.String("checkpoint", "", "state file of what the mirror verified: resume claims and waiting claims (empty = cold-verify on every start)")
	maxLag := flag.Int64("max-lag", 0, "bytes the mirror may fall behind before raising ErrMirrorLagging (0 = unbounded)")
	restartGrace := flag.Duration("restart-grace", 10*time.Second, "how long a shard stream restarted cold (a reconnect's or a compaction's) may run, from the session's start, without holding again the last commit point the mirror verified on the shard before it counts as a rollback (a compaction's image, signed above every counter verified, is excused)")
	statusEvery := flag.Duration("status-every", 30*time.Second, "status line cadence (0 = quiet)")
	flag.Parse()
	if *addr == "" || *pubPath == "" {
		fmt.Fprintln(os.Stderr, "libseal-mirror: -addr and -pub are required")
		flag.Usage()
		os.Exit(2)
	}

	pemData, err := os.ReadFile(*pubPath)
	if err != nil {
		log.Fatalf("read public key: %v", err)
	}
	pub, err := pki.DecodePublicKeyPEM(pemData)
	if err != nil {
		log.Fatalf("parse public key: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, err := libseal.StartMirror(ctx, libseal.MirrorConfig{
		Addr:           *addr,
		Name:           *service,
		Pub:            pub,
		CheckpointPath: *ckptPath,
		MaxLag:         *maxLag,
		RestartGrace:   *restartGrace,
		OnViolation: func(err error) {
			log.Printf("INTEGRITY VIOLATION: %v", err)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("mirroring %q from %s (checkpoint: %s)", *service, *addr, orNone(*ckptPath))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	var ticker *time.Ticker
	var tick <-chan time.Time
	if *statusEvery > 0 {
		ticker = time.NewTicker(*statusEvery)
		tick = ticker.C
		defer ticker.Stop()
	}
	for {
		select {
		case <-sig:
			log.Printf("shutdown signal: persisting state file")
			stopCtx, stopCancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := m.Stop(stopCtx)
			stopCancel()
			if err != nil {
				log.Fatalf("stop: state file not saved: %v", err)
			}
			printStatus(m)
			return
		case <-tick:
			printStatus(m)
		case <-m.Done():
			// The loop only exits on its own when a violation latched.
			if err := m.Err(); err != nil {
				printStatus(m)
				log.Fatalf("mirror stopped: %v", err)
			}
			return
		}
	}
}

func printStatus(m *libseal.Mirror) {
	r := m.Report()
	state := "disconnected"
	if r.Connected {
		state = "connected"
	}
	log.Printf("status: %s, %d entries verified in %d batches, %d manifests (epoch %d), lag %d bytes, %d reconnects, %d stream restarts",
		state, r.TotalEntries, r.TotalBatches, r.Manifests, r.Epoch, r.LagBytes, r.Reconnects, r.Restarts)
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
