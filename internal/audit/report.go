package audit

// Report is the one verification result shape every entry point returns:
// one-shot set verification (VerifyPath; Verify / VerifyContext on the
// facade) and a live mirror's status both produce a *Report. A one-shot scan
// leaves the live-mirror fields zero.
type Report struct {
	// Shards holds each shard's own streaming result, indexed by shard.
	// One-shot scans fill it; a live mirror leaves it nil and reports
	// aggregates only.
	Shards []*StreamResult
	// Manifests is the number of epoch manifests verified; Epoch the last
	// manifest's epoch.
	Manifests int
	Epoch     uint64
	// TotalEntries / TotalBatches aggregate across shards (checkpointed
	// prefixes included); Tables counts entries per table across the set.
	TotalEntries int
	TotalBatches int
	Tables       map[string]int
	// CommittedBytes sums the shards' verified prefix lengths.
	CommittedBytes int64
	// Resumed reports whether any shard resumed from a checkpoint.
	Resumed bool

	// Live reports whether this Report came from a running mirror rather
	// than a one-shot scan; the fields below are only meaningful then.
	Live bool
	// Connected reports whether the mirror currently holds a feed session.
	Connected bool
	// CaughtUp reports whether the mirror has, at some tail report, fully
	// matched the server's committed sizes (it may have fallen behind
	// again since; LagBytes is the current distance).
	CaughtUp bool
	// Reconnects counts completed dial attempts after the first session;
	// Restarts counts the shard streams that went back to a cold re-read of
	// a shard the mirror had verified (a compaction's set-restart frame, a
	// resume proof rejected).
	Reconnects int
	Restarts   int
	// LagBytes is the mirror's best-known distance behind the server:
	// server-reported committed bytes minus locally verified bytes, summed
	// across shards. Negative is clamped to zero.
	LagBytes int64
}
