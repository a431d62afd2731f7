package main

import (
	"bufio"
	"fmt"
	"runtime"
	"time"

	"libseal"
	"libseal/internal/audit"
	"libseal/internal/core"
	"libseal/internal/httpparse"
	"libseal/internal/netsim"
	"libseal/internal/rote"
	"libseal/internal/services/apache"
	"libseal/internal/services/gitserver"
	"libseal/internal/testutil"
	"libseal/internal/vfs"
)

// The pinned deployment of every request workload. Changing any of these
// changes what the benchmark measures; README.md lists them.
const (
	frontAddr       = "front:443"
	serverName      = "libseal.bench"
	auditShards     = 2
	auditBatchMax   = 16
	auditBatchDelay = 200 * time.Microsecond
	roteFaults      = 1
	roteLatency     = 250 * time.Microsecond
	anchorTimeout   = 2 * time.Second
	enclaveThreads  = 32
	maxClients      = 4
	gitCheckEvery   = 25
)

// clientCount is min(nproc, 4): one keep-alive connection each.
func clientCount() int { return min(runtime.NumCPU(), maxClients) }

// stack is one deployed instance: netsim client side -> tlsterm in the
// simulated enclave -> httpparse -> core tap -> ssm -> sqldb -> audit group
// commit -> vfs fsync -> rote anchor, behind a keep-alive apache front end.
type stack struct {
	logSet
	net    *netsim.Network
	certs  *testutil.CertEnv
	bridge *libseal.Bridge
	seal   *libseal.LibSEAL
	front  *apache.Server
}

// logSet is a directory holding an audit-log set, with what is needed to
// verify it strictly: the enclave whose key signed it and the live counter
// group it is anchored to.
type logSet struct {
	dir   string
	encl  *libseal.Enclave
	group *rote.Group
}

// verifyOptions are the options of a strict cold verification; workers 0
// means GOMAXPROCS.
func (ls logSet) verifyOptions(workers int) libseal.VerifyStreamOptions {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return libseal.VerifyStreamOptions{
		VerifyOptions: libseal.VerifyOptions{Pub: ls.encl.PublicKey(), Protector: ls.group},
		Workers:       workers,
		// Streaming keeps memory bounded; the Report still carries totals.
		OnSegment: func(libseal.VerifySegment) error { return nil },
	}
}

func (ls logSet) verify(workers int) (*libseal.Report, error) {
	return libseal.Verify(ls.dir, ls.verifyOptions(workers))
}

// benchHandler serves the static bodies of static_mix and hands everything
// else to the Git service, so all request workloads run one deployment.
type benchHandler struct {
	git apache.Handler
}

func (h benchHandler) Handle(req *httpparse.Request) *httpparse.Response {
	switch req.PathOnly() {
	case "/s":
		return httpparse.NewResponse(200, smallBody)
	case "/l":
		return httpparse.NewResponse(200, largeBody)
	}
	return h.git.Handle(req)
}

// deploy builds the stack with its audit log in dir. checkEvery is 0 except
// on git_check. With a tracer the five seam wrappers are installed; without
// one the stack is exactly what libseal-server would run.
func deploy(dir string, checkEvery int, tr *tracer) (*stack, error) {
	st := &stack{net: netsim.NewNetwork(), logSet: logSet{dir: dir}}
	var err error
	if st.certs, err = testutil.NewCertEnv(serverName); err != nil {
		return nil, err
	}
	st.encl, err = libseal.NewPlatform().Launch(libseal.EnclaveConfig{
		Code:       []byte("libseal-benchmark"),
		MaxThreads: enclaveThreads,
		Cost:       libseal.DefaultCostModel(),
	})
	if err != nil {
		return nil, err
	}
	if st.bridge, err = libseal.NewBridge(st.encl, libseal.BridgeConfig{}); err != nil {
		return nil, err
	}
	if st.group, err = rote.NewGroup(roteFaults, roteLatency); err != nil {
		st.bridge.Close()
		return nil, err
	}
	cfg := core.Config{
		TLS:             libseal.TLSConfig{Cert: st.certs.Cert, Key: st.certs.Key, Opts: libseal.AllOptimizations()},
		Module:          libseal.GitModule(),
		AuditMode:       audit.ModeDisk,
		AuditDir:        dir,
		AuditShards:     auditShards,
		AuditBatchMax:   auditBatchMax,
		AuditBatchDelay: auditBatchDelay,
		Protector:       st.group,
		AnchorTimeout:   anchorTimeout,
		CheckEvery:      checkEvery,
	}
	var handler apache.Handler = benchHandler{git: gitserver.NewServer().Handler()}
	if tr != nil {
		cfg.Module = tracedModule{cfg.Module, tr}
		cfg.Protector = tracedProtector{st.group, tr}
		cfg.AuditFS = tracedFS{vfs.OS{}, tr}
		handler = tracedHandler{handler, tr}
	}
	if st.seal, err = core.New(st.bridge, cfg); err != nil {
		st.bridge.Close()
		return nil, err
	}
	term := st.seal.TLS().Terminator()
	if tr != nil {
		term = tracedTerminator{term, tr}
	}
	st.front, err = apache.New(apache.Config{Terminator: term, Handler: handler, KeepAlive: true})
	if err == nil {
		var ln *netsim.Listener
		if ln, err = st.net.Listen(frontAddr); err == nil {
			go st.front.Serve(ln) // stopped and waited for by front.Close
		}
	}
	if err != nil {
		st.seal.Close()
		st.bridge.Close()
		return nil, err
	}
	return st, nil
}

// close stops the front end, waits for its workers, then closes the audit
// log and the bridge. Clients must have closed their connections first, or
// the workers never see end of stream.
func (st *stack) close() error {
	st.front.Close()
	err := st.seal.Close()
	st.bridge.Close()
	return err
}

// client is one closed-loop caller with one keep-alive connection.
type client struct {
	st   *stack
	gen  *generator
	conn *libseal.ClientConn
	br   *bufio.Reader

	samples   []sample
	attempted int
	failed    int
	failures  []string // first few failure messages, verbatim
	gateErr   error    // a wrong reply: the run is void
}

func (c *client) connect() error {
	raw, err := c.st.net.Dial(frontAddr)
	if err != nil {
		return err
	}
	conn, err := libseal.ConnectTLS(raw, c.st.certs.ClientConfig(serverName))
	if err != nil {
		raw.Close()
		return err
	}
	c.conn, c.br = conn, bufio.NewReader(conn)
	return nil
}

func (c *client) disconnect() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

func (c *client) roundTrip(raw []byte) (*httpparse.Response, error) {
	if c.conn == nil {
		if err := c.connect(); err != nil {
			return nil, err
		}
	}
	if _, err := c.conn.Write(raw); err != nil {
		return nil, err
	}
	return httpparse.ReadResponse(c.br)
}

// sample is one completed request.
type sample struct {
	end       time.Duration // completion time since the run's start
	lat       time.Duration
	kind      kind
	check     bool
	reconnect bool
}

const keptFailures = 5

// do sends one generated request, validates the reply and records it. A
// transport error or a non-200 status is a failed request; a 200 with the
// wrong content sets gateErr.
func (c *client) do(r request, t0 time.Time) {
	if r.reconnect {
		c.disconnect()
	}
	c.attempted++
	start := time.Now()
	rsp, err := c.roundTrip(r.raw)
	end := time.Now()
	if err == nil && rsp.Status != 200 {
		err = fmt.Errorf("status %d: %s", rsp.Status, rsp.Body)
	}
	if err != nil {
		c.failed++
		if len(c.failures) < keptFailures {
			c.failures = append(c.failures, fmt.Sprintf("client %d request %d: %v", c.gen.client, c.gen.seq, err))
		}
		c.disconnect() // a failed connection cannot be reused
		return
	}
	if err := c.gen.validate(r, rsp); err != nil {
		c.gateErr = fmt.Errorf("client %d request %d: %w", c.gen.client, c.gen.seq, err)
		return
	}
	c.gen.acked(r)
	c.samples = append(c.samples, sample{end.Sub(t0), end.Sub(start), r.kind, r.check, r.reconnect})
}
