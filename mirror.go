package libseal

import (
	"context"
	"net"

	"libseal/internal/audit/mirror"
)

// This file is the live-mirroring facade: a server exposes its audit log
// over a replication feed, and any number of followers run a Mirror against
// it, continuously re-verifying the stream with nothing but the enclave's
// public key. The feed is plumbing, not evidence — a compromised server
// controls every byte it sends — so the mirror re-derives integrity exactly
// like the offline verifier (hash chain, batch signatures, manifest replay)
// and judges rollback by its memory: a state older than one it verified is
// never accepted, across its own restarts too.
// See internal/audit/mirror and DESIGN.md §16.

type (
	// Mirror is a follower continuously verifying a live audit log over its
	// replication feed. Build one with StartMirror.
	Mirror = mirror.Mirror
	// MirrorConfig describes a mirror session: where to dial, the log-set
	// name, the enclave public key (the only trust anchor), the first
	// reconnect backoff, the lag bound, the restart grace and the checkpoint
	// path.
	MirrorConfig = mirror.Config
	// MirrorFeed is the server-side replication feed over a running audit
	// log. Build one with ServeAuditFeed.
	MirrorFeed = mirror.Feed
)

// StartMirror attaches a mirror to a feed and begins continuous
// verification in the background: every streamed batch is re-verified
// (chain, signature, manifest replay, the set rule) within one batch of the
// server's write. The mirror reconnects with exponential backoff from
// MirrorConfig.BackoffMin, capped at 5s (or BackoffMin if larger); stop it
// with Mirror.Stop, which persists the mirror's state file when
// MirrorConfig.CheckpointPath is set and returns that save's error. A detected violation latches
// (Mirror.Err, MirrorConfig.OnViolation) and stops the mirror — its
// attestation is void from that point.
func StartMirror(ctx context.Context, cfg MirrorConfig) (*Mirror, error) {
	return mirror.Start(ctx, cfg)
}

// ServeAuditFeed exposes a LibSEAL instance's persisted audit log as a
// replication feed on ln, accepting subscribers in the background — the
// one-call server side of live mirroring. The instance must be running with
// WithAuditDisk. Close the returned feed to stop serving.
func ServeAuditFeed(ls *LibSEAL, ln net.Listener) (*MirrorFeed, error) {
	feed, err := mirror.NewFeed(ls.Log())
	if err != nil {
		return nil, err
	}
	go feed.Serve(ln)
	return feed, nil
}
