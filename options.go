package libseal

import (
	"time"

	"libseal/internal/audit"
	"libseal/internal/core"
	"libseal/internal/resilience"
	"libseal/internal/sqldb"
)

// This file holds the constructor: Open is the one entry point, one option
// per concern, with the wiring between concerns (policy → group → breaker →
// protector) done in one place instead of at every call site.

// RollbackProtector is the monotonic counter service the audit log anchors
// its freshness to. CounterGroup implements it; so does BreakerProtector.
type RollbackProtector = audit.RollbackProtector

// QueryResult is one relational query result (columns plus rows), as carried
// by Violation.Rows and returned by audit-log queries.
type QueryResult = sqldb.Result

// AuditLog is the sharded audit log behind a LibSEAL instance, as returned
// by LibSEAL.Log — one shard unless WithAuditShards asks for more.
type AuditLog = audit.ShardedLog

// Option configures one aspect of a LibSEAL instance built with Open.
type Option func(*openConfig)

// openConfig accumulates options before Open assembles the core.Config.
// The counter-group plumbing (retry policy, breaker) is kept to the side
// and resolved into its Protector at Open time.
type openConfig struct {
	core core.Config

	group     *CounterGroup
	policy    *RetryPolicy
	breaker   *BreakerConfig
	protector RollbackProtector
	haveProt  bool
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

// WithSealedLog encrypts persisted log entries under the enclave sealing
// key (§6.3 log privacy).
func WithSealedLog() Option {
	return func(c *openConfig) { c.core.SealLog = true }
}

// WithCounterGroup anchors the audit log's rollback protection to an
// existing ROTE counter group. Combine with WithRetryPolicy and/or
// WithBreaker; Open applies the policy to the group and wraps it in the
// breaker before installing it as the protector.
func WithCounterGroup(g *CounterGroup) Option {
	return func(c *openConfig) { c.group = g }
}

// WithRetryPolicy tunes the counter group's request timeouts, retries and
// backoff. Requires WithCounterGroup.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *openConfig) { c.policy = &p }
}

// WithBreaker wraps the counter group in a circuit breaker so a failed
// quorum degrades the log immediately instead of burning the retry budget
// on every batch. Requires WithCounterGroup. Breaker telemetry registers
// under "audit.breaker".
func WithBreaker(cfg BreakerConfig) Option {
	return func(c *openConfig) { c.breaker = &cfg }
}

// WithProtector installs an explicit rollback protector, overriding the
// counter-group plumbing above. A nil protector disables rollback
// protection (testing only).
func WithProtector(p RollbackProtector) Option {
	return func(c *openConfig) { c.protector, c.haveProt = p, true }
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

// WithDegradedLimit caps how many batches may commit without a fresh
// counter anchor before appends fail hard (bounded-evidence window).
func WithDegradedLimit(n int) Option {
	return func(c *openConfig) { c.core.DegradedLimit = n }
}

// WithAnchorTimeout bounds each rollback-counter operation, keeping a stuck
// quorum from stalling the request path.
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
//	    libseal.WithCounterGroup(group),
//	    libseal.WithBreaker(libseal.BreakerConfig{}),
//	)
//
// Open resolves the counter-group plumbing in a fixed order: an explicit
// WithProtector wins outright; otherwise the group from WithCounterGroup
// gets the WithRetryPolicy applied, is wrapped by the WithBreaker circuit
// breaker if configured, and becomes the protector. Options apply in argument order, so later options
// override earlier ones. Open(bridge) with no options is a memory-only,
// unprotected instance.
func Open(bridge *Bridge, opts ...Option) (*LibSEAL, error) {
	var c openConfig
	for _, opt := range opts {
		opt(&c)
	}
	if c.haveProt {
		c.core.Protector = c.protector
	} else if c.group != nil {
		if c.policy != nil {
			c.group.SetRetryPolicy(*c.policy)
		}
		if c.breaker != nil {
			c.core.Protector = resilience.NewBreakerProtector("audit.breaker", c.group, *c.breaker)
		} else {
			c.core.Protector = c.group
		}
	}
	return core.New(bridge, c.core)
}
