// Package squid implements a forwarding proxy modelled on the Squid
// deployment of the paper's Dropbox experiment (§6.4): all client traffic is
// routed through the proxy, which terminates the client-side TLS connection
// (with LibSEAL, so every request and response is audited) and opens its own
// TLS connection to the upstream service. Two TLS hops mean two handshakes
// and double en-/decryption, which is why the paper measures higher overhead
// for Squid than Apache (§6.6).
package squid

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"libseal/internal/tlsterm"
)

// Config configures the proxy.
type Config struct {
	// Terminator terminates client connections (native or LibSEAL).
	Terminator tlsterm.Terminator
	// Dial opens a raw transport connection to the upstream service.
	Dial func() (net.Conn, error)
	// UpstreamTLS, when non-nil, wraps the upstream connection in TLS, the
	// proxy acting as client. Nil keeps the upstream leg plaintext.
	UpstreamTLS *tlsterm.ClientConfig
}

// Proxy is one Squid-like instance.
type Proxy struct {
	cfg     Config
	wg      sync.WaitGroup
	closed  atomic.Bool
	relayed atomic.Int64
	lnMu    sync.Mutex
	current net.Listener
}

// New creates a proxy.
func New(cfg Config) (*Proxy, error) {
	if cfg.Terminator == nil || cfg.Dial == nil {
		return nil, errors.New("squid: terminator and dial required")
	}
	return &Proxy{cfg: cfg}, nil
}

// Serve accepts and relays connections until the listener closes.
func (p *Proxy) Serve(l net.Listener) error {
	p.lnMu.Lock()
	p.current = l
	p.lnMu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if p.closed.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.relay(conn)
		}()
	}
}

// Close stops accepting and waits for in-flight relays.
func (p *Proxy) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.lnMu.Lock()
	if p.current != nil {
		p.current.Close()
	}
	p.lnMu.Unlock()
	p.wg.Wait()
}

func (p *Proxy) relay(conn net.Conn) {
	client, err := p.cfg.Terminator.Accept(conn)
	if err != nil {
		conn.Close()
		return
	}
	defer client.Close()

	raw, err := p.cfg.Dial()
	if err != nil {
		return
	}
	var upstream io.ReadWriteCloser = raw
	if p.cfg.UpstreamTLS != nil {
		tlsUp, err := tlsterm.Connect(raw, p.cfg.UpstreamTLS)
		if err != nil {
			raw.Close()
			return
		}
		upstream = tlsUp
	}
	defer upstream.Close()

	done := make(chan struct{}, 2)
	copyDir := func(dst io.Writer, src io.Reader) {
		buf := make([]byte, 32*1024)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				p.relayed.Add(int64(n))
				if _, werr := dst.Write(buf[:n]); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		done <- struct{}{}
	}
	go copyDir(upstream, client)
	go copyDir(client, upstream)
	// When either direction ends, tear both down; the deferred Closes
	// unblock the other copier.
	<-done
}
