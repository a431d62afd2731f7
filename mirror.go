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
// and judges rollback by continuity: verified state is never walked back.
// See internal/audit/mirror and DESIGN.md §16.

type (
	// Mirror is a follower continuously verifying a live audit log over its
	// replication feed. Build one with StartMirror.
	Mirror = mirror.Mirror
	// MirrorConfig describes a mirror session: where to dial, the log-set
	// name, the enclave public key (the only trust anchor), and the
	// reconnect/lag/checkpoint knobs.
	MirrorConfig = mirror.Config
	// MirrorFeed is the server-side replication feed over a running audit
	// log. Build one with ServeAuditFeed.
	MirrorFeed = mirror.Feed
)

// StartMirror attaches a mirror to a feed and begins continuous
// verification in the background: every streamed batch is re-verified
// (chain, signature, counter continuity, manifest replay) within one batch
// of the server's write. The mirror reconnects with breaker-guarded
// exponential backoff; stop it with Mirror.Stop, which persists a resume
// checkpoint when MirrorConfig.CheckpointPath is set. A detected violation
// latches (Mirror.Err, MirrorConfig.OnViolation) and stops the mirror — its
// attestation is void from that point.
func StartMirror(ctx context.Context, cfg MirrorConfig) (*Mirror, error) {
	return mirror.Start(ctx, cfg)
}

// ServeAuditFeed exposes a LibSEAL instance's persisted audit log as a
// replication feed on ln, accepting subscribers in the background — the
// one-call server side of live mirroring. The instance must be running with
// WithAuditDisk. Close the returned feed to stop serving.
func ServeAuditFeed(ls *LibSEAL, ln net.Listener) (*MirrorFeed, error) {
	feed, err := mirror.NewFeed(mirror.FeedConfig{Log: ls.Log()})
	if err != nil {
		return nil, err
	}
	go feed.Serve(ln)
	return feed, nil
}
