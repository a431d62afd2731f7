// Package apache implements a multi-worker HTTP/1.1 server modelled on the
// Apache httpd deployments of the paper's evaluation (§6.4, §6.6): it serves
// static content, hosts application handlers, and can run as a reverse proxy
// in front of backend servers — the configuration used for the large-scale
// Git experiment. The server speaks TLS through a tlsterm.Terminator, so the
// same code runs against native TLS (the LibreSSL baseline) and LibSEAL.
package apache

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"libseal/internal/httpparse"
	"libseal/internal/simtime"
	"libseal/internal/tlsterm"
)

// Handler processes one request.
type Handler interface {
	Handle(req *httpparse.Request) *httpparse.Response
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(req *httpparse.Request) *httpparse.Response

// Handle implements Handler.
func (f HandlerFunc) Handle(req *httpparse.Request) *httpparse.Response { return f(req) }

// Config configures the server.
type Config struct {
	// Terminator performs TLS termination for accepted connections.
	Terminator tlsterm.Terminator
	// Handler serves requests.
	Handler Handler
	// KeepAlive allows persistent connections. The paper's §6.6 worst-case
	// experiments use non-persistent connections (one request each).
	KeepAlive bool
	// UseExData stores the current request path in the TLS object's
	// application data, as Apache does (§4.2, optimisation 3).
	UseExData bool
}

// Server is one Apache-like instance.
type Server struct {
	cfg     Config
	wg      sync.WaitGroup
	closed  atomic.Bool
	served  atomic.Int64
	lnMu    sync.Mutex
	current net.Listener
}

// New creates a server.
func New(cfg Config) (*Server, error) {
	if cfg.Terminator == nil || cfg.Handler == nil {
		return nil, errors.New("apache: terminator and handler required")
	}
	return &Server{cfg: cfg}, nil
}

// Serve accepts connections until the listener closes. Like Apache's worker
// MPM, each connection is handled by its own worker.
func (s *Server) Serve(l net.Listener) error {
	s.lnMu.Lock()
	s.current = l
	s.lnMu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.closed.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// Close stops accepting and waits for in-flight workers.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.lnMu.Lock()
	if s.current != nil {
		s.current.Close()
	}
	s.lnMu.Unlock()
	s.wg.Wait()
}

func (s *Server) handleConn(conn net.Conn) {
	stream, err := s.cfg.Terminator.Accept(conn)
	if err != nil {
		conn.Close()
		return
	}
	defer stream.Close()
	ssl, _ := stream.(*tlsterm.SSL)
	br := bufio.NewReader(stream)
	for {
		req, err := httpparse.ReadRequest(br)
		if err != nil {
			return
		}
		if s.cfg.UseExData && ssl != nil {
			// Apache stores the request in the TLS object (§4.2).
			_ = ssl.SetExData("r->the_request", req.Method+" "+req.Path)
		}
		// Decide persistence from the request before the handler can
		// observe or mutate it.
		keep := s.cfg.KeepAlive && !strings.EqualFold(req.Header.Get("Connection"), "close")
		rsp := s.cfg.Handler.Handle(req)
		if rsp == nil {
			rsp = httpparse.NewResponse(500, nil)
		}
		// A proxied response may carry the backend's Connection header;
		// the front end owns this hop's semantics.
		rsp.Header.Del("Connection")
		if !keep {
			rsp.Header.Set("Connection", "close")
		}
		if err := writeResponse(stream, rsp); err != nil {
			return
		}
		s.served.Add(1)
		if !keep {
			return
		}
	}
}

// encodeBufs holds the buffers responses are encoded into. A buffer is
// reused as soon as Write returns: both terminators seal what they are
// given inside the call (the enclave library in its ecall), the core tap
// keeps no caller buffer, and a socket copies.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledEncode is the largest buffer put back in encodeBufs, so that one
// multi-megabyte response is not kept alive by the pool.
const maxPooledEncode = 1 << 20

// writeResponse encodes rsp into a pooled buffer and writes it in one Write.
func writeResponse(w io.Writer, rsp *httpparse.Response) error {
	buf := encodeBufs.Get().(*[]byte)
	*buf = rsp.AppendTo((*buf)[:0])
	_, err := w.Write(*buf)
	if cap(*buf) <= maxPooledEncode {
		encodeBufs.Put(buf)
	}
	return err
}

// StaticHandler serves fixed content of a configurable size at any path,
// like the static-file workloads of §6.6. A nonzero ProcessingCost burns CPU
// per request to model application work.
type StaticHandler struct {
	Content        []byte
	ProcessingCost time.Duration
}

// Handle implements Handler.
func (h *StaticHandler) Handle(req *httpparse.Request) *httpparse.Response {
	if h.ProcessingCost > 0 {
		simtime.Burn(h.ProcessingCost)
	}
	return httpparse.NewResponse(200, h.Content)
}

// ReverseProxy forwards requests to a backend over a fresh plain connection,
// the deployment of the paper's Git experiment (§3.2, §6.4): LibSEAL at the
// proxy observes all traffic even when many backend instances serve it.
type ReverseProxy struct {
	// Dial opens a connection to (one of) the backend(s).
	Dial func() (net.Conn, error)
}

// Handle implements Handler.
func (p *ReverseProxy) Handle(req *httpparse.Request) *httpparse.Response {
	conn, err := p.Dial()
	if err != nil {
		return httpparse.NewResponse(502, []byte(err.Error()))
	}
	defer conn.Close()
	fwd := req.Clone()
	fwd.Header.Set("Connection", "close")
	if err := fwd.Encode(conn); err != nil {
		return httpparse.NewResponse(502, []byte(err.Error()))
	}
	rsp, err := httpparse.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		return httpparse.NewResponse(502, []byte(fmt.Sprintf("backend: %v", err)))
	}
	return rsp
}
