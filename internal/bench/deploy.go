package bench

import (
	"net"
	"os"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/audit"
	"libseal/internal/core"
	"libseal/internal/enclave"
	"libseal/internal/faultinject"
	"libseal/internal/netsim"
	"libseal/internal/resilience"
	"libseal/internal/rote"
	"libseal/internal/services/apache"
	"libseal/internal/services/dropbox"
	"libseal/internal/services/gitserver"
	"libseal/internal/services/owncloud"
	"libseal/internal/services/squid"
	"libseal/internal/ssm"
	"libseal/internal/ssm/dropboxssm"
	"libseal/internal/ssm/gitssm"
	"libseal/internal/ssm/owncloudssm"
	"libseal/internal/testutil"
	"libseal/internal/tlsterm"
)

// SealMode selects the evaluation configuration of a deployment, matching
// the paper's native / LibSEAL-process / LibSEAL-mem / LibSEAL-disk curves.
type SealMode int

// Evaluation configurations.
const (
	// ModeNative terminates TLS in-process without an enclave (the
	// LibreSSL baseline).
	ModeNative SealMode = iota
	// ModeProcess terminates TLS inside the enclave but does not log
	// (isolates the SGX overhead).
	ModeProcess
	// ModeMem adds audit logging to an in-memory database.
	ModeMem
	// ModeDisk adds synchronous persistent logging with ROTE rollback
	// protection.
	ModeDisk
)

func (m SealMode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModeProcess:
		return "LibSEAL-process"
	case ModeMem:
		return "LibSEAL-mem"
	case ModeDisk:
		return "LibSEAL-disk"
	}
	return "?"
}

// StackOptions tunes a deployment: how the enclave and its bridge are sized,
// how the counter group behaves, and — in Core — everything about the
// LibSEAL instance itself.
type StackOptions struct {
	Mode SealMode
	// Cost is the enclave cost model; zero-value charges nothing.
	Cost enclave.CostModel
	// CallMode selects sync or async enclave transitions (Table 2).
	CallMode asyncall.Mode
	// Schedulers and TasksPerScheduler size the async machinery
	// (Tables 3-4).
	Schedulers        int
	TasksPerScheduler int
	// AppSlots sizes the async request array (defaults to 48).
	AppSlots int
	// MaxThreads is the enclave TCS count.
	MaxThreads int
	// Opts are the §4.2 transition-reduction optimisations.
	Opts *tlsterm.Optimizations
	// Core configures the LibSEAL instance: check cadence, group commit,
	// sharding, admission control, recovery and the degraded-mode knobs are
	// set here under their core.Config names. The deployment completes TLS,
	// Module, AuditMode, Protector and AuditFS from the fields around it, and
	// AuditDir (disk mode) with a temporary directory when left empty.
	Core core.Config
	// ROTELatency is the one-way latency to counter nodes (same cluster).
	ROTELatency time.Duration
	// ROTEF is the number of counter-node failures the group tolerates
	// (n = 3f+1 nodes); zero means f=1.
	ROTEF int
	// Group reuses an existing counter group instead of minting one, so a
	// restarted stack keeps its monotonic counters (disk mode).
	Group *rote.Group
	// Inject, when set, drives chaos: its node rules attach to the counter
	// group and its filesystem rules interpose on audit-log persistence.
	// Link rules are installed by the test via Stack.Net.SetLinkFault.
	Inject *faultinject.Injector
	// Breaker wraps the counter group in a circuit breaker (disk mode): a
	// run of quorum failures makes appends degrade immediately instead of
	// burning the retry budget per batch. Nil disables the breaker.
	Breaker *resilience.BreakerConfig
	// RetryPolicy overrides the counter group's request timeout/retry
	// policy (nil keeps rote.DefaultRetryPolicy).
	RetryPolicy *rote.RetryPolicy
	// Platform reuses an enclave platform across stacks, so a restarted
	// deployment keeps its keys and can verify its previous log
	// (Core.RecoverExisting requires it).
	Platform *enclave.Platform
	// UseExData makes the front server store request data in TLS ex_data.
	UseExData bool
}

func (o StackOptions) withDefaults() StackOptions {
	if o.MaxThreads == 0 {
		o.MaxThreads = 24
	}
	if o.Opts == nil {
		all := tlsterm.AllOptimizations()
		o.Opts = &all
	}
	return o
}

// Stack is a deployed service behind (optionally) LibSEAL.
type Stack struct {
	Net     *netsim.Network
	Env     *testutil.CertEnv
	Enclave *enclave.Enclave
	Bridge  *asyncall.Bridge
	Seal    *core.LibSEAL
	Group   *rote.Group
	// Breaker is the circuit breaker protecting the counter group (nil
	// unless StackOptions.Breaker was set).
	Breaker *resilience.Breaker

	// Addr is the front-end address clients dial.
	Addr string

	closers []func()
}

// Dial opens a raw transport connection to the stack's front end.
func (s *Stack) Dial() (net.Conn, error) { return s.Net.Dial(s.Addr) }

// ClientConfig returns the TLS client configuration for the front end.
func (s *Stack) ClientConfig() *tlsterm.ClientConfig {
	return s.Env.ClientConfig("libseal.test")
}

// NewClient builds a workload client against the stack.
func (s *Stack) NewClient(persistent bool) *Client {
	return NewClient(s.Dial, s.ClientConfig(), persistent)
}

// Close tears the deployment down: LibSEAL first, then the bridge, then the
// servers in the order they were started.
func (s *Stack) Close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// server is what the stack's HTTP servers and proxies have in common.
type server interface {
	Serve(net.Listener) error
	Close()
}

// serve starts srv on addr of the stack's network and schedules its
// shutdown after everything already deployed.
func (s *Stack) serve(addr string, srv server) error {
	ln, err := s.Net.Listen(addr)
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	s.closers = append([]func(){srv.Close}, s.closers...)
	return nil
}

// buildStack builds the TLS termination layer for the configured mode and
// returns it together with the stack (whose Seal is nil in native mode).
func buildStack(opts StackOptions, module ssm.Module) (*Stack, tlsterm.Terminator, error) {
	opts = opts.withDefaults()
	st := &Stack{Net: netsim.NewNetwork(), Addr: "front:443"}
	env, err := testutil.NewCertEnv("libseal.test")
	if err != nil {
		return nil, nil, err
	}
	st.Env = env

	if opts.Mode == ModeNative {
		return st, tlsterm.NewNativeTerminator(env.ServerConfig()), nil
	}

	encl, bridge, err := testutil.NewBridge(testutil.BridgeOptions{
		Mode:              opts.CallMode,
		MaxThreads:        opts.MaxThreads,
		AppSlots:          opts.AppSlots,
		Schedulers:        opts.Schedulers,
		TasksPerScheduler: opts.TasksPerScheduler,
		Cost:              opts.Cost,
		Platform:          opts.Platform,
	})
	if err != nil {
		return nil, nil, err
	}
	st.Enclave = encl
	st.Bridge = bridge
	st.closers = append(st.closers, bridge.Close)

	cfg := opts.Core
	cfg.TLS = tlsterm.LibraryConfig{Cert: env.Cert, Key: env.Key, Opts: *opts.Opts}
	switch opts.Mode {
	case ModeProcess:
		// TLS in the enclave, no logging.
	case ModeMem:
		cfg.Module = module
		cfg.AuditMode = audit.ModeMemory
	case ModeDisk:
		cfg.Module = module
		cfg.AuditMode = audit.ModeDisk
		if cfg.AuditDir == "" {
			tmp, err := os.MkdirTemp("", "libseal-audit-*")
			if err != nil {
				return nil, nil, err
			}
			st.closers = append(st.closers, func() { os.RemoveAll(tmp) })
			cfg.AuditDir = tmp
		}
		group := opts.Group
		if group == nil {
			f := opts.ROTEF
			if f == 0 {
				f = 1
			}
			var err error
			group, err = rote.NewGroup(f, opts.ROTELatency)
			if err != nil {
				return nil, nil, err
			}
		}
		if opts.RetryPolicy != nil {
			group.SetRetryPolicy(*opts.RetryPolicy)
		}
		st.Group = group
		cfg.Protector = group
		if opts.Breaker != nil {
			bp := resilience.NewBreakerProtector("rote.breaker", group, *opts.Breaker)
			st.Breaker = bp.Breaker()
			cfg.Protector = bp
		}
		if opts.Inject != nil {
			opts.Inject.AttachGroup(group)
			cfg.AuditFS = opts.Inject.FS(nil)
		}
	}
	seal, err := core.New(bridge, cfg)
	if err != nil {
		return nil, nil, err
	}
	st.Seal = seal
	st.closers = append(st.closers, func() { seal.Close() })
	return st, seal.TLS().Terminator(), nil
}

// NewCustomStack deploys any handler behind an Apache front end with the
// given module — the generic path for auditing new services, and the one the
// Git, ownCloud and static-content deployments are built from.
func NewCustomStack(opts StackOptions, module ssm.Module, handler apache.Handler) (*Stack, error) {
	return newApacheStack(opts, module, handler, true)
}

func newApacheStack(opts StackOptions, module ssm.Module, handler apache.Handler, keepAlive bool) (*Stack, error) {
	st, term, err := buildStack(opts, module)
	if err != nil {
		return nil, err
	}
	front, err := apache.New(apache.Config{
		Terminator: term,
		Handler:    handler,
		KeepAlive:  keepAlive,
		UseExData:  opts.UseExData,
	})
	if err != nil {
		return nil, err
	}
	return st, st.serve(st.Addr, front)
}

// GitStack deploys the paper's Git experiment (§6.4): Apache in reverse
// proxy mode linked against LibSEAL, forwarding to a Git backend over plain
// HTTP, with the Git SSM auditing all traffic.
type GitStack struct {
	*Stack
	Backend *gitserver.Server
}

// NewGitStack builds the Git deployment. processingCost models the backend's
// per-request work.
func NewGitStack(opts StackOptions, processingCost time.Duration) (*GitStack, error) {
	backend := gitserver.NewServer()
	backend.ProcessingCost = processingCost
	backendSrv, err := apache.New(apache.Config{
		Terminator: tlsterm.PlainTerminator{},
		Handler:    backend.Handler(),
	})
	if err != nil {
		return nil, err
	}
	// The proxy dials through the stack's network, which exists only once
	// the front end does; it is first used by a request.
	var st *Stack
	st, err = NewCustomStack(opts, gitssm.New(), &apache.ReverseProxy{
		Dial: func() (net.Conn, error) { return st.Net.Dial("git-backend:80") },
	})
	if err != nil {
		return nil, err
	}
	return &GitStack{Stack: st, Backend: backend}, st.serve("git-backend:80", backendSrv)
}

// OwnCloudStack deploys the collaborative editing experiment: Apache hosting
// the ownCloud handler directly, LibSEAL terminating TLS.
type OwnCloudStack struct {
	*Stack
	Service *owncloud.Server
}

// NewOwnCloudStack builds the ownCloud deployment. processingCost models the
// PHP engine, the bottleneck of the paper's deployment.
func NewOwnCloudStack(opts StackOptions, processingCost time.Duration) (*OwnCloudStack, error) {
	svc := owncloud.NewServer()
	svc.ProcessingCost = processingCost
	st, err := NewCustomStack(opts, owncloudssm.New(), svc.Handler())
	if err != nil {
		return nil, err
	}
	return &OwnCloudStack{Stack: st, Service: svc}, nil
}

// NewStaticStack deploys a plain Apache serving fixed-size content, used by
// the enclave-TLS overhead and async-call experiments (§6.6, §6.8).
func NewStaticStack(opts StackOptions, contentSize int, keepAlive bool) (*Stack, error) {
	content := make([]byte, contentSize)
	for i := range content {
		content[i] = byte('a' + i%26)
	}
	return newApacheStack(opts, nil, &apache.StaticHandler{Content: content}, keepAlive)
}

// newProxyStack deploys a Squid proxy terminating client TLS (inside LibSEAL,
// mode permitting) in front of an origin Apache that serves handler over
// native TLS at <originName>:443 under the certificate name <originName>.test.
func newProxyStack(opts StackOptions, module ssm.Module, originName string, handler apache.Handler) (*Stack, error) {
	st, term, err := buildStack(opts, module)
	if err != nil {
		return nil, err
	}
	originEnv, err := testutil.NewCertEnv(originName + ".test")
	if err != nil {
		return nil, err
	}
	origin, err := apache.New(apache.Config{
		Terminator: tlsterm.NewNativeTerminator(originEnv.ServerConfig()),
		Handler:    handler,
		KeepAlive:  true,
	})
	if err != nil {
		return nil, err
	}
	originAddr := originName + ":443"
	if err := st.serve(originAddr, origin); err != nil {
		return nil, err
	}
	proxy, err := squid.New(squid.Config{
		Terminator:  term,
		Dial:        func() (net.Conn, error) { return st.Net.Dial(originAddr) },
		UpstreamTLS: &tlsterm.ClientConfig{Roots: originEnv.Pool, ServerName: originName + ".test"},
	})
	if err != nil {
		return nil, err
	}
	return st, st.serve(st.Addr, proxy)
}

// DropboxStack deploys the Dropbox experiment (§6.4): clients reach the
// remote service through a local Squid proxy linked against LibSEAL; the
// proxy-to-Dropbox leg crosses a simulated 76 ms WAN and is itself TLS.
type DropboxStack struct {
	*Stack
	Service *dropbox.Server
}

// DropboxWANLatency is the paper's measured proxy-to-Dropbox latency.
const DropboxWANLatency = 38 * time.Millisecond // one-way; 76 ms RTT

// NewDropboxStack builds the Dropbox deployment.
func NewDropboxStack(opts StackOptions, wanOneWay time.Duration) (*DropboxStack, error) {
	svc := dropbox.NewServer()
	st, err := newProxyStack(opts, dropboxssm.New(), "dropbox", svc.Handler())
	if err != nil {
		return nil, err
	}
	st.Net.SetLink("dropbox:443", netsim.LinkConfig{Latency: wanOneWay})
	return &DropboxStack{Stack: st, Service: svc}, nil
}

// NewDropboxClient returns the client of the Dropbox experiment: certificate
// verification disabled for the proxy-terminated leg, as in the paper (§6.4).
func (s *DropboxStack) NewDropboxClient(persistent bool) *Client {
	return NewClient(s.Dial, &tlsterm.ClientConfig{InsecureSkipVerify: true}, persistent)
}

// NewSquidStack deploys the Squid overhead experiment of §6.6: client ->
// Squid (TLS, optionally LibSEAL) -> origin Apache (TLS), content served by
// the origin.
func NewSquidStack(opts StackOptions, contentSize int) (*Stack, error) {
	return newProxyStack(opts, nil, "origin", &apache.StaticHandler{Content: make([]byte, contentSize)})
}
