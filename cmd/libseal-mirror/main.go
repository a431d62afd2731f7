// Command libseal-mirror runs a live audit-log follower: it connects to a
// libseal-server's replication feed (-mirror-addr on the server side) and
// continuously re-verifies the log as it grows — hash chain, per-batch
// enclave signatures, epoch-manifest replay, rollback-counter continuity —
// holding nothing but the enclave's public key. The feed is untrusted
// plumbing: a compromised server can withhold bytes (bounded by -max-lag)
// but cannot make tampered or rolled-back bytes verify.
//
// The mirror persists a resume checkpoint, so a restarted mirror continues
// from its verified prefix instead of rescanning, after re-proving the
// checkpoint against the server's signature records. A detected violation
// latches, prints, and exits non-zero: from that point the log's attestation
// is void and the evidence should be preserved.
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
	ckptPath := flag.String("checkpoint", "", "resume checkpoint sidecar (empty = cold-verify on every start)")
	maxLag := flag.Int64("max-lag", 0, "bytes the mirror may fall behind before raising ErrMirrorLagging (0 = unbounded)")
	restartGrace := flag.Duration("restart-grace", 10*time.Second, "how long a restarted shard stream (a reconnect's or a compaction's) may run without regaining the highest counter the mirror verified on the shard before it counts as a rollback")
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
			log.Printf("shutdown signal: persisting checkpoint")
			stopCtx, stopCancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := m.Stop(stopCtx)
			stopCancel()
			if err != nil {
				log.Fatalf("stop: %v", err)
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
