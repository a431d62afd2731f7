package libseal

import (
	"errors"

	"libseal/internal/audit"
	"libseal/internal/audit/mirror"
	"libseal/internal/core"
)

// This file is the library's complete error taxonomy: every sentinel a
// caller can usefully test for with errors.Is is re-exported here, in one
// documented block, instead of scattered across feature files. The wrapping
// guarantee is part of the API: any error returned by this package that was
// caused by one of these conditions satisfies errors.Is against the matching
// sentinel, no matter how many layers of context have wrapped it. The
// facade never returns an internal package's unexported error as the only
// handle on a condition — errors_test.go enforces that every exported Err
// identifier lives in this block.
var (
	// ErrTampered reports an audit-log integrity violation: a hash-chain
	// break, a bad enclave signature, a malformed or replayed manifest, or
	// any other discrepancy between the persisted bytes and what the enclave
	// signed. Returned by the Verify family and latched by mirrors.
	ErrTampered = audit.ErrTampered

	// ErrBadCounter reports a rollback: the log (or one shard of it) is a
	// stale-but-internally-consistent earlier version, detected against the
	// monotonic counter, the epoch manifests, or a live mirror's memory of
	// what it verified. It is a distinct sentinel from ErrTampered: test for it first
	// when the two need different handling (a rollback implicates the host,
	// not the bytes).
	ErrBadCounter = audit.ErrBadCounter

	// ErrCheckpointStale reports that a verification resume checkpoint (or a
	// mirror's resume claim) no longer matches the log — trimmed, rotated or
	// swapped since it was written. The caller falls back to a cold scan;
	// mirrors do so automatically.
	ErrCheckpointStale = audit.ErrCheckpointStale

	// ErrAuditOverloaded is returned (wrapped) by appends shed by the audit
	// log's admission control (see WithAdmission).
	ErrAuditOverloaded = audit.ErrOverloaded

	// ErrMirrorLagging reports that a live mirror has fallen further behind
	// the server's committed state than MirrorConfig.MaxLag allows. A feed
	// cannot make tampered bytes verify, but it can withhold bytes; the lag
	// bound turns withholding into an alarm instead of silence.
	ErrMirrorLagging = mirror.ErrMirrorLagging

	// ErrLoggingDisabled is returned by check and trim operations on an
	// instance built without a service module (TLS termination only).
	ErrLoggingDisabled = core.ErrLoggingDisabled

	// ErrUnknownModule is returned by ModuleByName for a name outside the
	// registry; its message lists the valid names.
	ErrUnknownModule = errors.New("libseal: unknown service module")
)
