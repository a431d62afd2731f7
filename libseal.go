// Package libseal is a SEcure Audit Library for Internet services: a
// reproduction, in pure Go, of "LibSEAL: Revealing Service Integrity
// Violations Using Trusted Execution" (Aublin et al., EuroSys 2018).
//
// LibSEAL acts as a drop-in replacement for a TLS library. It terminates
// TLS connections inside a (simulated) trusted execution environment, logs
// information about every request and response into a tamper-evident
// relational audit log, and checks service-specific integrity invariants
// expressed as SQL queries. Violations — a Git server advertising a rolled-
// back branch, a collaborative editor losing edits, a file store corrupting
// metadata — become provable facts backed by the enclave's signature chain.
//
// The package re-exports the library's public surface; the implementation
// lives in internal packages:
//
//   - enclave:   simulated SGX platform (costed transitions, attestation)
//   - lthread, asyncall: user-level threading and asynchronous enclave calls
//   - sqldb:     embedded relational database (SQLite substitute)
//   - tlsterm:   TLS termination with the OpenSSL-shaped API
//   - audit:     hash-chained, signed, rollback-protected audit log
//   - rote:      distributed monotonic counter protocol
//   - ssm/...:   service-specific modules for Git, ownCloud and Dropbox
//   - services/...: the simulated services and attack injection
//
// A minimal server looks like:
//
//	platform := libseal.NewPlatform()
//	encl, _ := platform.Launch(libseal.EnclaveConfig{Code: []byte("my-service")})
//	bridge, _ := libseal.NewBridge(encl, libseal.BridgeConfig{})
//	seal, _ := libseal.Open(bridge,
//	    libseal.WithTLS(libseal.TLSConfig{Cert: cert, Key: key}),
//	    libseal.WithModule(libseal.GitModule()),
//	    libseal.WithAuditDisk(dir),
//	)
//	ssl := seal.TLS().NewSSL(conn) // then ssl.Accept / Read / Write
//
// and a client holding only the enclave's public key audits the log with:
//
//	report, err := libseal.Verify(dir, libseal.VerifyStreamOptions{
//	    VerifyOptions: libseal.VerifyOptions{Pub: pub},
//	})
package libseal

import (
	"context"
	"fmt"
	"net"
	"sort"

	"libseal/internal/asyncall"
	"libseal/internal/audit"
	"libseal/internal/core"
	"libseal/internal/enclave"
	"libseal/internal/faultinject"
	"libseal/internal/rote"
	"libseal/internal/ssm"
	"libseal/internal/ssm/dropboxssm"
	"libseal/internal/ssm/gitssm"
	"libseal/internal/ssm/messagingssm"
	"libseal/internal/ssm/owncloudssm"
	"libseal/internal/telemetry"
	"libseal/internal/tlsterm"
)

// Core library types.
type (
	// LibSEAL is one audit-library instance.
	LibSEAL = core.LibSEAL
	// Violation records one detected integrity violation.
	Violation = core.Violation

	// TLSConfig configures the enclave TLS library.
	TLSConfig = tlsterm.LibraryConfig
	// ClientConfig configures a TLS client.
	ClientConfig = tlsterm.ClientConfig
	// ServerConfig configures a native (baseline) TLS server.
	ServerConfig = tlsterm.ServerConfig
	// Optimizations toggles the §4.2 transition-reduction techniques.
	Optimizations = tlsterm.Optimizations
	// SSL is one terminated TLS connection (the OpenSSL SSL* equivalent).
	SSL = tlsterm.SSL
	// ClientConn is the client side of a secure channel, as returned by
	// ConnectTLS.
	ClientConn = tlsterm.Conn

	// Module is a service-specific module: schema, parser, invariants and
	// trimming queries for one service.
	Module = ssm.Module
	// Invariant is one integrity check expressed as SQL.
	Invariant = ssm.Invariant

	// Platform models one SGX-capable machine.
	Platform = enclave.Platform
	// Enclave is a launched enclave instance.
	Enclave = enclave.Enclave
	// EnclaveConfig describes an enclave to launch.
	EnclaveConfig = enclave.Config
	// CostModel describes the simulated platform's performance.
	CostModel = enclave.CostModel

	// Bridge connects application threads to an enclave.
	Bridge = asyncall.Bridge
	// BridgeConfig sizes the bridge.
	BridgeConfig = asyncall.Config

	// AuditMode selects in-memory or persistent logging.
	AuditMode = audit.Mode
	// VerifyOptions controls persisted-log verification.
	VerifyOptions = audit.VerifyOptions
	// VerifyStreamOptions extends VerifyOptions with the parallel segmented
	// pipeline's knobs: worker count, streaming callback, checkpointing and
	// resume (see Verify).
	VerifyStreamOptions = audit.StreamOptions
	// VerifyStreamResult is one shard's streaming verification outcome
	// (Report.Shards), including whole-log totals on a resumed run.
	VerifyStreamResult = audit.StreamResult
	// VerifySegment is one committed, verified segment as delivered to the
	// streaming callback: NumEntries counts its entries, and Entries() decodes
	// them on demand, during the callback (verification itself builds none).
	// Deliveries are provisional: entries must not be trusted until Verify
	// returns a nil error, since whole-log checks (rollback freshness in
	// particular) run last.
	VerifySegment = audit.SegmentInfo
	// Report is the one verification result shape every entry point
	// returns: Verify / VerifyContext for one-shot scans (Live false) and
	// Mirror.Report for live replication (Live true, plus the lag and
	// session fields).
	Report = audit.Report
	// VerifyError is the rejection Verify returns when one record's own check
	// fails — a broken chain, a sequence gap, an invalid signature — when the
	// stream stops framing or when it ends unsigned, carrying the shard, byte
	// offset, batch and record it sits at. Reach it with
	// errors.As; it reads as the bare sentence and satisfies
	// errors.Is(err, ErrTampered).
	VerifyError = audit.VerifyError
	// VerifyCheckpoint is a persisted verification checkpoint sidecar.
	VerifyCheckpoint = audit.Checkpoint
	// VerifyCheckpointConfig tells the streaming verifier how often to
	// persist resumable progress (to <shard file>.ckpt).
	VerifyCheckpointConfig = audit.CheckpointConfig
	// LogEntry is one verified audit-log tuple.
	LogEntry = audit.Entry
	// AuditStatus describes the audit log's degraded-mode state.
	AuditStatus = audit.Status

	// CounterGroup is a ROTE distributed monotonic counter group.
	CounterGroup = rote.Group
	// RetryPolicy tunes counter-group request timeouts, retries and backoff.
	RetryPolicy = rote.RetryPolicy
	// CounterNodeStatus is one counter node's liveness and sync state.
	CounterNodeStatus = rote.NodeStatus

	// FaultScenario is a reproducible chaos schedule for robustness tests.
	FaultScenario = faultinject.Scenario
	// FaultRule schedules one fault against one target.
	FaultRule = faultinject.Rule
	// FaultInjector applies a scenario to the network, counter-node and
	// storage seams.
	FaultInjector = faultinject.Injector

	// Metric is one entry of a telemetry snapshot: a counter, gauge or
	// latency histogram reading.
	Metric = telemetry.Metric
	// TraceFunc receives one named trace event and its duration.
	TraceFunc = telemetry.TraceFunc
)

// Audit log modes.
const (
	// AuditMemory keeps the log in enclave memory only.
	AuditMemory = audit.ModeMemory
	// AuditDisk persists the log with hash chain, signatures and rollback
	// protection.
	AuditDisk = audit.ModeDisk
)

// Check header names for in-band invariant checking (§5.2).
const (
	// CheckHeader on a request triggers an invariant check.
	CheckHeader = core.CheckHeader
	// CheckResultHeader carries the most recent check result.
	CheckResultHeader = core.CheckResultHeader
)

// NewPlatform creates a fresh simulated SGX machine.
func NewPlatform() *Platform { return enclave.NewPlatform() }

// LoadOrCreatePlatform restores a persisted platform state (the simulation
// analogue of running on the same physical machine across restarts) or
// creates and persists a fresh one.
func LoadOrCreatePlatform(path string) (*Platform, error) {
	return enclave.LoadOrCreatePlatform(path)
}

// NewBridge opens an enclave call bridge (synchronous or asynchronous).
func NewBridge(encl *Enclave, cfg BridgeConfig) (*Bridge, error) {
	return asyncall.New(encl, cfg)
}

// DefaultCostModel returns the cost model calibrated against the paper's
// SGX v1 testbed.
func DefaultCostModel() CostModel { return enclave.DefaultCostModel() }

// ZeroCostModel returns a model in which enclave operations are free.
func ZeroCostModel() CostModel { return enclave.ZeroCostModel() }

// AllOptimizations enables every §4.2 transition-reduction technique.
func AllOptimizations() Optimizations { return tlsterm.AllOptimizations() }

// GitModule returns the service-specific module for Git (§6.2): it detects
// teleport, rollback and reference-deletion attacks.
func GitModule() Module { return gitssm.New() }

// OwnCloudModule returns the module for collaborative document editing: it
// detects lost edits, altered edits and stale snapshots.
func OwnCloudModule() Module { return owncloudssm.New() }

// DropboxModule returns the module for block-based file storage: it detects
// blocklist corruption and lost files.
func DropboxModule() Module { return dropboxssm.New() }

// MessagingModule returns the module for XMPP-style instant messaging (the
// fourth application scenario of §2.2): it detects dropped, modified and
// misdelivered messages.
func MessagingModule() Module { return messagingssm.New() }

// moduleRegistry maps canonical service names to module constructors. A
// fresh module is built per call: modules carry per-instance parser state.
var moduleRegistry = map[string]func() Module{
	"git":       GitModule,
	"owncloud":  OwnCloudModule,
	"dropbox":   DropboxModule,
	"messaging": MessagingModule,
}

// ModuleNames returns the registered service-module names in sorted order.
func ModuleNames() []string {
	names := make([]string, 0, len(moduleRegistry))
	for n := range moduleRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ModuleByName builds the service-specific module registered under name
// ("git", "owncloud", "dropbox" or "messaging"). It is the single place
// where command-line service names resolve to modules; binaries and
// examples should use it instead of switching over names themselves.
func ModuleByName(name string) (Module, error) {
	mk, ok := moduleRegistry[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (valid: %v)", ErrUnknownModule, name, ModuleNames())
	}
	return mk(), nil
}

// NewCounterGroup creates a ROTE counter group tolerating f faulty nodes,
// using the default request timeout/retry policy; tune it with the group's
// SetRetryPolicy and install it with Open's WithProtector.
func NewCounterGroup(f int) (*CounterGroup, error) { return rote.NewGroup(f, 0) }

// Verify is the unified verification entry point: it checks a persisted
// audit log's integrity (hash chain, enclave signatures, counter freshness)
// with the parallel segmented pipeline, streaming by default, and returns
// the unified Report shape shared with VerifyContext and Mirror.Report.
//
// dir is the audit directory (WithAuditDisk). Every persisted log is a set —
// one shard file per shard, however many WithAuditShards asked for, plus the
// epoch-manifest sidecar — verified shard-by-shard in parallel and then
// cross-checked against the signed manifests, so a rollback of any single
// shard is detected even though each shard's own chain still verifies. Shard
// files without their manifest are ErrTampered. Set opts.ResumeAuto to
// continue from per-shard checkpoint sidecars written by a previous run: a
// shard resumes only where a manifest vouches for its checkpoint, and is
// verified cold otherwise. Entries reach the caller only through
// opts.OnSegment.
func Verify(dir string, opts VerifyStreamOptions) (*Report, error) {
	return VerifyContext(context.Background(), dir, opts)
}

// VerifyContext is Verify with cancellation: ctx aborts the verification
// between segments, returning ctx's error. Results verified before the
// cancellation are not reported (a partial scan proves nothing about the
// suffix).
func VerifyContext(ctx context.Context, dir string, opts VerifyStreamOptions) (*Report, error) {
	return audit.VerifyPath(ctx, dir, opts)
}

// ConnectTLS performs the client side of the secure-channel handshake over
// conn and returns the established channel. A nil cfg uses defaults
// (no server-certificate pinning, no client certificate).
func ConnectTLS(conn net.Conn, cfg *ClientConfig) (*ClientConn, error) {
	return tlsterm.Connect(conn, cfg)
}

// MetricsSnapshot returns a copy of every registered telemetry metric,
// sorted by name. See internal/telemetry for the metric inventory.
func MetricsSnapshot() []Metric { return telemetry.Snapshot() }

// SetMetricsEnabled turns telemetry recording on (the default) or off
// process-wide; disabling reduces every metric update to one atomic load.
func SetMetricsEnabled(on bool) { telemetry.SetEnabled(on) }

// ResetMetrics zeroes every registered metric, e.g. between benchmark
// phases. Registrations are kept.
func ResetMetrics() { telemetry.Reset() }

// RegisterTrace installs a named hook observing every trace event emitted
// by the instrumented hot paths (audit.append, rote.increment, ...). Hooks
// run synchronously on those paths and must not block.
func RegisterTrace(name string, fn TraceFunc) { telemetry.RegisterTrace(name, fn) }

// UnregisterTrace removes a named trace hook.
func UnregisterTrace(name string) { telemetry.UnregisterTrace(name) }
