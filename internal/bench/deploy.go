package bench

import (
	"net"
	"os"
	"time"

	"libseal"
	"libseal/internal/asyncall"
	"libseal/internal/enclave"
	"libseal/internal/netsim"
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

// StackOptions describes a deployment: the evaluation mode, how the enclave
// and its bridge are sized, the counter group, and any further LibSEAL
// options. Every LibSEAL instance is built by libseal.Open from the options
// the mode implies followed by Seal.
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
	// MaxThreads is the enclave TCS count.
	MaxThreads int
	// Opts are the §4.2 transition-reduction optimisations.
	Opts *tlsterm.Optimizations
	// Seal are further options for libseal.Open — check cadence, group
	// commit, admission control, recovery, fault injection. They apply after
	// the ones the mode implies, so they win: a WithProtector here replaces
	// the counter group as the log's anchor (Stack.Group stays the group).
	Seal []libseal.Option
	// Dir is the audit directory in disk mode; empty means a temporary one,
	// removed by Stack.Close.
	Dir string
	// ROTELatency is the one-way latency to counter nodes (same cluster).
	ROTELatency time.Duration
	// Group reuses an existing counter group instead of minting one (f=1),
	// so a restarted stack keeps its monotonic counters (disk mode).
	Group *rote.Group
	// Platform reuses an enclave platform across stacks, so a restarted
	// deployment keeps its keys and can verify its previous log
	// (libseal.WithRecovery requires it).
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
	Seal    *libseal.LibSEAL
	// Group is the counter group (disk mode).
	Group *rote.Group
	// Dir is the audit directory (disk mode).
	Dir string

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

// fail tears down what a deployment started before err and returns err.
func (s *Stack) fail(err error) error {
	s.Close()
	return err
}

// buildStack builds the TLS termination layer for the configured mode and
// returns it together with the stack (whose Seal is nil in native mode).
// On error it has torn down whatever it started.
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

	seal := []libseal.Option{libseal.WithTLS(libseal.TLSConfig{Cert: env.Cert, Key: env.Key, Opts: *opts.Opts})}
	if opts.Mode >= ModeMem { // the modes that audit
		seal = append(seal, libseal.WithModule(module))
	}
	if opts.Mode == ModeDisk {
		if st.Dir = opts.Dir; st.Dir == "" {
			if st.Dir, err = os.MkdirTemp("", "libseal-audit-*"); err != nil {
				return nil, nil, st.fail(err)
			}
			st.closers = append(st.closers, func() { os.RemoveAll(st.Dir) })
		}
		if st.Group = opts.Group; st.Group == nil {
			if st.Group, err = rote.NewGroup(1, opts.ROTELatency); err != nil {
				return nil, nil, st.fail(err)
			}
		}
		seal = append(seal, libseal.WithAuditDisk(st.Dir), libseal.WithProtector(st.Group))
	}
	if st.Seal, err = libseal.Open(bridge, append(seal, opts.Seal...)...); err != nil {
		return nil, nil, st.fail(err)
	}
	st.closers = append(st.closers, func() { st.Seal.Close() })
	return st, st.Seal.TLS().Terminator(), nil
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
	if err == nil {
		err = st.serve(st.Addr, front)
	}
	if err != nil {
		return nil, st.fail(err)
	}
	return st, nil
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
	if err := st.serve("git-backend:80", backendSrv); err != nil {
		return nil, st.fail(err)
	}
	return &GitStack{Stack: st, Backend: backend}, nil
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
		return nil, st.fail(err)
	}
	origin, err := apache.New(apache.Config{
		Terminator: tlsterm.NewNativeTerminator(originEnv.ServerConfig()),
		Handler:    handler,
		KeepAlive:  true,
	})
	if err != nil {
		return nil, st.fail(err)
	}
	originAddr := originName + ":443"
	if err := st.serve(originAddr, origin); err != nil {
		return nil, st.fail(err)
	}
	proxy, err := squid.New(squid.Config{
		Terminator:  term,
		Dial:        func() (net.Conn, error) { return st.Net.Dial(originAddr) },
		UpstreamTLS: &tlsterm.ClientConfig{Roots: originEnv.Pool, ServerName: originName + ".test"},
	})
	if err == nil {
		err = st.serve(st.Addr, proxy)
	}
	if err != nil {
		return nil, st.fail(err)
	}
	return st, nil
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
