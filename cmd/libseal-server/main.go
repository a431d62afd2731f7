// Command libseal-server runs one of the simulated services behind LibSEAL
// on a real TCP port. It launches a simulated SGX enclave, provisions a TLS
// certificate (written to disk for clients, along with the CA and the
// enclave's audit-signing public key), and serves the chosen service through
// the enclave TLS library with full auditing.
//
// Usage:
//
//	libseal-server -listen :8443 -service git -mode disk -dir ./audit
//
// Then interact with cmd/libseal-client, and validate the audit log with
// cmd/libseal-verify against the written enclave.pub.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"libseal"
	"libseal/internal/pki"
	"libseal/internal/services/apache"
	"libseal/internal/services/dropbox"
	"libseal/internal/services/gitserver"
	"libseal/internal/services/messaging"
	"libseal/internal/services/owncloud"
	"libseal/internal/telemetry"
	"libseal/internal/tlsterm"
)

// serviceHandlers maps service names to their simulated backends. Module
// resolution itself lives in libseal.ModuleByName; only the handlers are
// binary-specific.
var serviceHandlers = map[string]func() apache.Handler{
	"git":       func() apache.Handler { return gitserver.NewServer().Handler() },
	"owncloud":  func() apache.Handler { return owncloud.NewServer().Handler() },
	"dropbox":   func() apache.Handler { return dropbox.NewServer().Handler() },
	"messaging": func() apache.Handler { return messaging.NewServer().Handler() },
}

func main() {
	listen := flag.String("listen", ":8443", "TCP listen address")
	service := flag.String("service", "git", "service to run: git, owncloud, dropbox or messaging")
	mode := flag.String("mode", "mem", "audit mode: mem or disk")
	dir := flag.String("dir", ".", "directory for the audit log and key material")
	auditShards := flag.Int("audit-shards", 1, "audit log shard files, partitioned per connection; every disk log is its shard files plus a signed epoch-manifest sidecar")
	checkEvery := flag.Int("check-every", 25, "run checks and trimming every N logged pairs (0 = off)")
	rateLimit := flag.Duration("check-rate-limit", time.Second, "minimum interval between client-triggered checks")
	degradedLimit := flag.Int("degraded-limit", 64, "appends buffered under a stale counter anchor while the counter quorum is unreachable (0 = fail writes instead)")
	anchorTimeout := flag.Duration("anchor-timeout", 2*time.Second, "bound on each rollback-counter operation on the request path")
	recoverMaxLag := flag.Uint64("recover-max-lag", 1, "counter lag tolerated when resuming the log set already in -dir (a crash between increment and flush leaves lag 1)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /readyz and /debug/pprof on this address (empty = off)")
	mirrorAddr := flag.String("mirror-addr", "", "serve the audit-log replication feed on this address for libseal-mirror followers (disk mode only; empty = off)")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive counter-quorum failures that open the circuit breaker (0 = no breaker)")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "how long the breaker stays open before probing the quorum again")
	maxStaged := flag.Int("max-staged", 256, "staging budget of the audit group-commit pipeline; over-budget appends are shed (0 = unbounded)")
	admitTimeout := flag.Duration("admit-timeout", 500*time.Millisecond, "how long an over-budget append may wait for the pipeline to drain before being shed")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests and audit batches to finish")
	flag.Parse()

	module, err := libseal.ModuleByName(*service)
	if err != nil {
		log.Fatal(err)
	}
	mkHandler, ok := serviceHandlers[*service]
	if !ok {
		log.Fatalf("no handler for service %q", *service)
	}
	handler := mkHandler()

	// Launch the enclave and the call bridge. The platform state persists
	// across restarts (the simulation analogue of one physical machine), so
	// sealing keys, counters and the audit signing key survive.
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		log.Fatal(err)
	}
	platform, err := libseal.LoadOrCreatePlatform(filepath.Join(*dir, "platform.state"))
	if err != nil {
		log.Fatal(err)
	}
	encl, err := platform.Launch(libseal.EnclaveConfig{
		Code:       []byte("libseal-server/" + *service),
		MaxThreads: 32,
		Cost:       libseal.DefaultCostModel(),
	})
	if err != nil {
		log.Fatal(err)
	}
	bridge, err := libseal.NewBridge(encl, libseal.BridgeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer bridge.Close()

	// Generate the TLS identity inside the enclave and certify it,
	// embedding an attestation quote so clients can check they really talk
	// to LibSEAL (§6.3).
	ca, err := pki.NewCA("libseal-server-ca")
	if err != nil {
		log.Fatal(err)
	}
	pub, quote, key, err := tlsterm.GenerateEnclaveIdentity(bridge)
	if err != nil {
		log.Fatal(err)
	}
	cert, err := ca.Issue("libseal-server", pub, &quote)
	if err != nil {
		log.Fatal(err)
	}

	// Persist the client-side trust material.
	caCert := pki.EncodeCertPEM(&pki.Certificate{Subject: ca.Name, Issuer: ca.Name, PubKey: ca.PublicKey()})
	mustWrite(filepath.Join(*dir, "ca.pem"), caCert)
	mustWrite(filepath.Join(*dir, "server-cert.pem"), pki.EncodeCertPEM(cert))
	enclPub, err := pki.EncodePublicKeyPEM(encl.PublicKey())
	if err != nil {
		log.Fatal(err)
	}
	mustWrite(filepath.Join(*dir, "enclave.pub"), enclPub)

	opts := []libseal.Option{
		libseal.WithTLS(libseal.TLSConfig{Cert: cert, Key: key, Opts: libseal.AllOptimizations()}),
		libseal.WithModule(module),
		libseal.WithChecks(*checkEvery, 0, *rateLimit),
		libseal.WithViolationHandler(func(name string, rows *libseal.QueryResult) {
			log.Printf("INTEGRITY VIOLATION %s: %d offending log entries", name, len(rows.Rows))
		}),
	}
	var (
		group   *libseal.CounterGroup
		breaker *libseal.Breaker
	)
	switch *mode {
	case "mem":
	case "disk":
		group, err = libseal.NewCounterGroup(1)
		if err != nil {
			log.Fatal(err)
		}
		var protector libseal.RollbackProtector = group
		if *breakerThreshold > 0 {
			bp := libseal.NewBreakerProtector("rote.breaker", group, libseal.BreakerConfig{
				Threshold: *breakerThreshold,
				Cooldown:  *breakerCooldown,
				OnStateChange: func(from, to libseal.BreakerState) {
					log.Printf("counter breaker: %s -> %s", from, to)
				},
			})
			breaker = bp.Breaker()
			protector = bp
		}
		opts = append(opts,
			libseal.WithAuditDisk(*dir),
			libseal.WithAuditShards(*auditShards),
			libseal.WithBatching(libseal.MeasuredBatchMax, libseal.MeasuredBatchDelay),
			libseal.WithDegradedLimit(*degradedLimit),
			libseal.WithAnchorTimeout(*anchorTimeout),
			libseal.WithAdmission(*maxStaged, *admitTimeout),
			libseal.WithProtector(protector),
		)
		// A log set already in -dir is resumed, never created over: a new
		// set would truncate the previous run's evidence. A set that fails
		// recovery stops the server and stays as it is.
		if hasLogSet(*dir, module.Name()) {
			log.Printf("resuming the audit log set in %s", *dir)
			opts = append(opts, libseal.WithRecovery(*recoverMaxLag))
		}
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
	seal, err := libseal.Open(bridge, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer seal.Close()

	if *mirrorAddr != "" {
		if *mode != "disk" {
			log.Fatal("-mirror-addr needs -mode disk: the feed streams the persisted log files")
		}
		ml, err := net.Listen("tcp", *mirrorAddr)
		if err != nil {
			log.Fatal(err)
		}
		feed, err := libseal.ServeAuditFeed(seal, ml)
		if err != nil {
			log.Fatal(err)
		}
		defer feed.Close()
		log.Printf("audit replication feed on %s (follow with: libseal-mirror -addr %s -service %s -pub %s)",
			ml.Addr(), ml.Addr(), *service, filepath.Join(*dir, "enclave.pub"))
	}

	if *metricsAddr != "" {
		mux := telemetry.NewServeMux()
		newHealth(seal, group, breaker, *degradedLimit).Mount(mux)
		tl, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("telemetry on http://%s/metrics (health under /healthz and /readyz, pprof under /debug/pprof/)", tl.Addr())
		go func() {
			if err := http.Serve(tl, mux); err != nil {
				log.Printf("telemetry endpoint: %v", err)
			}
		}()
	}

	server, err := apache.New(apache.Config{
		Terminator: seal.TLS().Terminator(),
		Handler:    handler,
		KeepAlive:  true,
	})
	if err != nil {
		log.Fatal(err)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("libseal-server: %s service on %s (audit: %s)", *service, l.Addr(), *mode)
	log.Printf("trust material in %s: ca.pem, server-cert.pem, enclave.pub", *dir)

	go func() {
		sig := make(chan os.Signal, 2)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("shutdown signal: no longer accepting connections, draining (timeout %v; signal again to force exit)", *drainTimeout)
		l.Close()
		<-sig
		log.Printf("second signal: forcing exit")
		os.Exit(1)
	}()
	// Serve returns nil once the listener closes; anything else is a real
	// serve failure.
	if err := server.Serve(l); err != nil {
		log.Fatal(err)
	}
	drain(seal, server, *drainTimeout)
}

// drain finishes in-flight work after the listener has closed: it waits for
// active connections to complete, runs a final invariant check, and flushes
// buffered group-commit batches by closing the audit log — all bounded by
// timeout so a stalled disk cannot wedge shutdown forever.
func drain(seal *libseal.LibSEAL, server *apache.Server, timeout time.Duration) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		server.Close() // waits for in-flight workers
		if result, err := seal.CheckNow(); err != nil {
			log.Printf("final invariant check: %v", err)
		} else {
			log.Printf("final invariant check: %s", result)
		}
		st := seal.StatsSnapshot()
		log.Printf("drained: %d pairs, %d tuples, %d checks, %d violations",
			st.Pairs, st.Tuples, st.Checks, st.Violations)
		if err := seal.Close(); err != nil {
			log.Printf("audit close: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		log.Printf("drain timed out after %v; exiting with in-flight work unflushed", timeout)
		os.Exit(1)
	}
}

// newHealth wires the server's readiness probes: counter-quorum liveness,
// circuit-breaker position, and audit degraded-mode pressure. Probes are
// nil-safe so mem mode (no counter group, no breaker) still serves /readyz.
func newHealth(seal *libseal.LibSEAL, group *libseal.CounterGroup, breaker *libseal.Breaker, degradedLimit int) *libseal.Health {
	h := libseal.NewHealth()
	h.Liveness("process", func() libseal.HealthCheckResult {
		return libseal.HealthOK("serving")
	})
	if group != nil {
		h.Readiness("rote-quorum", func() libseal.HealthCheckResult {
			need := 2*group.F() + 1
			healthy := 0
			for _, n := range group.NodeStatus() {
				if n.Alive && n.Synced {
					healthy++
				}
			}
			detail := fmt.Sprintf("%d/%d nodes healthy (quorum %d)", healthy, len(group.NodeStatus()), need)
			if healthy < need {
				return libseal.HealthUnhealthy(detail)
			}
			return libseal.HealthOK(detail)
		})
	}
	if breaker != nil {
		h.Readiness("counter-breaker", func() libseal.HealthCheckResult {
			s := breaker.State()
			if s == libseal.BreakerOpen {
				return libseal.HealthUnhealthy("breaker open: counter quorum unreachable")
			}
			return libseal.HealthOK("breaker " + s.String())
		})
	}
	h.Readiness("audit", func() libseal.HealthCheckResult {
		st := seal.AuditStatus()
		if st.Degraded {
			return libseal.HealthUnhealthy(fmt.Sprintf("degraded: %d appends awaiting a fresh counter anchor (limit %d)", st.PendingAnchor, degradedLimit))
		}
		return libseal.HealthOK(fmt.Sprintf("anchored (%d degraded episodes closed)", st.Gaps))
	})
	return h
}

// hasLogSet reports whether dir holds any file of the named log set: its
// manifest sidecar or one of its shard files.
func hasLogSet(dir, name string) bool {
	shards, _ := filepath.Glob(filepath.Join(dir, name+"-shard*.lseal"))
	_, err := os.Stat(filepath.Join(dir, name+".manifest"))
	return len(shards) > 0 || err == nil
}

func mustWrite(path string, data []byte) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}
