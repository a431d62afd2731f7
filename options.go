package libseal

import (
	"time"

	"libseal/internal/audit"
	"libseal/internal/core"
	"libseal/internal/sqldb"
)

// This file holds the constructor: Open is the one entry point, one option
// per concern. libseal-server, the examples and internal/bench's
// deployments all build their instances through it.

// RollbackProtector is the monotonic counter service the audit log anchors
// its freshness to. CounterGroup implements it.
type RollbackProtector = audit.RollbackProtector

// QueryResult is one relational query result (columns plus rows), as carried
// by Violation.Rows and returned by audit-log queries.
type QueryResult = sqldb.Result

// AuditLog is the sharded audit log behind a LibSEAL instance, as returned
// by LibSEAL.Log — one shard unless WithAuditShards asks for more.
type AuditLog = audit.ShardedLog

// Option configures one aspect of a LibSEAL instance built with Open.
type Option func(*openConfig)

// openConfig accumulates options before Open hands the core.Config over.
type openConfig struct {
	core core.Config
}

// WithModule selects the service-specific module (schema, parser,
// invariants, trimming).
func WithModule(m Module) Option {
	return func(c *openConfig) { c.core.Module = m }
}

// WithTLS configures the enclave TLS library (certificate, key, §4.2
// optimizations).
func WithTLS(cfg TLSConfig) Option {
	return func(c *openConfig) { c.core.TLS = cfg }
}

// WithAuditDisk persists the audit log under dir with hash chain,
// signatures and rollback protection. Without it the log is memory-only.
func WithAuditDisk(dir string) Option {
	return func(c *openConfig) {
		c.core.AuditMode = AuditDisk
		c.core.AuditDir = dir
	}
}

// WithAuditShards partitions the persisted audit log across n independently
// group-committed shard files bound together by a signed cross-shard epoch
// manifest (see internal/audit). n <= 1 means one shard, in the same layout:
// its shard file and the manifest sidecar. Only meaningful together with
// WithAuditDisk.
func WithAuditShards(n int) Option {
	return func(c *openConfig) { c.core.AuditShards = n }
}

// WithManifestInterval sets the epoch-manifest cadence of a persisted log
// (default 500ms). Shorter intervals tighten the rollback-detection window at the
// cost of one counter increment, signature and fsync per interval.
func WithManifestInterval(d time.Duration) Option {
	return func(c *openConfig) { c.core.AuditManifestEvery = d }
}

// WithProtector anchors the audit log's rollback protection, normally on a
// CounterGroup. Tune the group's request timeouts and retries on the group
// itself (CounterGroup.SetRetryPolicy); WithAnchorTimeout bounds each
// operation and WithDegradedLimit decides what an unreachable quorum costs.
// A nil protector disables rollback protection (testing only).
func WithProtector(p RollbackProtector) Option {
	return func(c *openConfig) { c.core.Protector = p }
}

// WithFaultInjector is a harness hook, for chaos tests and the evaluation
// harness only: it routes audit-log persistence through in's filesystem
// seam, so its storage rules (torn writes, stalls, ENOSPC) hit the log
// files. in's counter-node rules attach to a group with in.AttachGroup.
func WithFaultInjector(in *FaultInjector) Option {
	return func(c *openConfig) { c.core.AuditFS = in.FS(nil) }
}

// WithAdmission bounds the audit log's staged-row backlog: appends beyond
// maxStaged rows wait up to timeout for capacity and are then shed with
// ErrAuditOverloaded. Zero maxStaged means unbounded.
func WithAdmission(maxStaged int, timeout time.Duration) Option {
	return func(c *openConfig) {
		c.core.AuditMaxStaged = maxStaged
		c.core.AuditAdmitTimeout = timeout
	}
}

// MeasuredBatchMax and MeasuredBatchDelay are the group-commit setting every
// measurement in this repository was taken at — the BENCHMARK.json
// workloads, the sweeps' audit environment — and the one libseal-server
// runs: WithBatching(MeasuredBatchMax, MeasuredBatchDelay).
const (
	MeasuredBatchMax   = audit.MeasuredBatchMax
	MeasuredBatchDelay = audit.MeasuredBatchDelay
)

// WithBatching tunes group commit: one signature, fsync and counter
// increment cover up to max staged entries. A leader behind a commit in
// flight waits up to delay for followers to pile on; on an idle log it
// commits at once. Without it every entry is its own batch.
func WithBatching(max int, delay time.Duration) Option {
	return func(c *openConfig) {
		c.core.AuditBatchMax = max
		c.core.AuditBatchDelay = delay
	}
}

// WithDegradedLimit caps how many appends may commit without a fresh
// counter anchor while the quorum is unreachable (a degraded episode)
// before appends fail hard: the bounded-evidence window. While degraded, a
// batch asks the quorum only when the probe is due — one anchor timeout
// after the last failed attempt — or when the budget cannot take it; the
// first answered probe re-anchors the backlog. Zero fails every append
// whose anchor fails.
func WithDegradedLimit(n int) Option {
	return func(c *openConfig) { c.core.DegradedLimit = n }
}

// WithAnchorTimeout bounds each rollback-counter operation, keeping a stuck
// quorum from stalling the request path, and paces a degraded episode's
// probes (WithDegradedLimit).
func WithAnchorTimeout(d time.Duration) Option {
	return func(c *openConfig) { c.core.AnchorTimeout = d }
}

// WithChecks schedules invariant checking: every n-th request pair, at
// least every interval, and at most once per minInterval. Zeros keep the
// respective defaults.
func WithChecks(every int, interval, minInterval time.Duration) Option {
	return func(c *openConfig) {
		c.core.CheckEvery = every
		c.core.CheckInterval = interval
		c.core.CheckMinInterval = minInterval
	}
}

// WithRecovery makes Open resume an existing persisted log (verifying it
// under the enclave key) instead of failing on leftover files. maxLag
// tolerates up to that many missing final batches against the rollback
// counter — the crash window group commit admits — and 0 demands an exact
// counter match.
func WithRecovery(maxLag uint64) Option {
	return func(c *openConfig) {
		c.core.RecoverExisting = true
		c.core.RecoverMaxLag = maxLag
	}
}

// WithViolationHandler registers a callback invoked (synchronously with
// detection) for every invariant violation.
func WithViolationHandler(fn func(invariant string, rows *QueryResult)) Option {
	return func(c *openConfig) { c.core.OnViolation = fn }
}

// Open builds a LibSEAL instance on an enclave bridge from functional
// options:
//
//	group, _ := libseal.NewCounterGroup(1)
//	seal, err := libseal.Open(bridge,
//	    libseal.WithModule(libseal.GitModule()),
//	    libseal.WithTLS(libseal.TLSConfig{Cert: cert, Key: key}),
//	    libseal.WithAuditDisk(dir),
//	    libseal.WithAuditShards(4),
//	    libseal.WithProtector(group),
//	)
//
// Options apply in argument order, so a later option overrides an earlier
// one setting the same thing. Open(bridge) with no options is a
// memory-only, unprotected instance.
func Open(bridge *Bridge, opts ...Option) (*LibSEAL, error) {
	var c openConfig
	for _, opt := range opts {
		opt(&c)
	}
	return core.New(bridge, c.core)
}
