// Package netsim provides an in-memory network with configurable per-link
// latency and bandwidth. LibSEAL's evaluation needs it to reproduce the
// Dropbox topology: clients talk to a local Squid/LibSEAL proxy which
// forwards traffic to a remote service over a ~76 ms WAN link (§6.4).
package netsim

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"libseal/internal/simtime"
)

// wait is a link's modelled time: serialisation on the writer's side,
// propagation on the reader's.
var wait = simtime.NewLayer("netsim")

// LinkConfig describes one direction of a duplex link.
type LinkConfig struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Bandwidth is the serialisation rate in bytes per second; zero means
	// unlimited.
	Bandwidth int64
}

// rtt helpers for tests and benchmarks.
func (c LinkConfig) String() string {
	return fmt.Sprintf("latency=%v bandwidth=%dB/s", c.Latency, c.Bandwidth)
}

type item struct {
	data []byte
	at   time.Time // earliest delivery time
}

// frameBufSize is the capacity of the wire's pooled buffers. One TLS frame
// (16 KiB of plaintext plus its header and sealing overhead) fits, and it is
// one of the Go allocator's size classes, so a pooled buffer wastes nothing.
const frameBufSize = 18 << 10

// minPooledWrite is the smallest write copied into a pooled buffer: a
// smaller one gets a copy of its own size, so a queued small write never
// pins a frame-sized buffer, and a pooled one at most doubles its bytes.
const minPooledWrite = frameBufSize / 2

// frameBufs holds the buffers of frame-sized writes. Write copies into one
// (a socket copies what it is given) and Read returns it once the item's
// last byte is consumed, so a stream of frames reuses a few buffers instead
// of leaving one of garbage per frame.
var frameBufs = sync.Pool{New: func() any { return new([frameBufSize]byte) }}

// copyWrite copies p for the queue. Only a pooled buffer has capacity
// frameBufSize: any other copy has capacity len(p), outside the pooled range.
func copyWrite(p []byte) []byte {
	if len(p) < minPooledWrite || len(p) > frameBufSize {
		b := make([]byte, len(p))
		copy(b, p)
		return b
	}
	b := frameBufs.Get().(*[frameBufSize]byte)[:len(p)]
	copy(b, p)
	return b
}

// recycle returns a consumed or undelivered copy to the pool if it came
// from it.
func recycle(b []byte) {
	if cap(b) == frameBufSize {
		frameBufs.Put((*[frameBufSize]byte)(b[:frameBufSize]))
	}
}

// Fault describes what happens to one write on a faulted link. The zero
// value delivers the payload normally.
type Fault struct {
	// Drop silently discards the payload, as a lossy or partitioned link
	// would; the writer still observes success.
	Drop bool
	// Reset fails the write with ErrConnReset, modelling an RST from a
	// middlebox or a crashed peer.
	Reset bool
	// Delay adds one-way latency for this payload only (a latency spike).
	Delay time.Duration
}

// FaultFunc inspects one write (payload size n) and returns the fault to
// apply. Implementations must be safe for concurrent use.
type FaultFunc func(n int) Fault

// ErrConnReset is returned by Write when a fault resets the connection.
var ErrConnReset = errors.New("netsim: connection reset by peer")

// Conn is one endpoint of a simulated duplex link.
type Conn struct {
	cfg      LinkConfig
	peer     *Conn
	recv     chan item
	closed   chan struct{}
	closeOne sync.Once
	leftover item // the item a short Read left unfinished,
	off      int  // and how much of it has been read
	local    addr
	remote   addr

	mu            sync.Mutex
	readDeadline  time.Time
	writeDeadline time.Time
	fault         FaultFunc
}

type addr string

func (a addr) Network() string { return "sim" }
func (a addr) String() string  { return string(a) }

// Pipe creates a connected pair of simulated connections; cfg applies to
// both directions.
func Pipe(cfg LinkConfig) (*Conn, *Conn) {
	return NamedPipe(cfg, "client", "server")
}

// NamedPipe is Pipe with explicit endpoint addresses.
func NamedPipe(cfg LinkConfig, a, b string) (*Conn, *Conn) {
	c1 := &Conn{cfg: cfg, recv: make(chan item, 1024), closed: make(chan struct{}), local: addr(a), remote: addr(b)}
	c2 := &Conn{cfg: cfg, recv: make(chan item, 1024), closed: make(chan struct{}), local: addr(b), remote: addr(a)}
	c1.peer, c2.peer = c2, c1
	return c1, c2
}

// SetFault installs a fault function consulted on every Write from this
// endpoint. A nil function clears it.
func (c *Conn) SetFault(f FaultFunc) {
	c.mu.Lock()
	c.fault = f
	c.mu.Unlock()
}

// Write sends data to the peer, paying serialisation delay proportional to
// the configured bandwidth. Propagation latency is charged on the receive
// side so that concurrent transfers overlap as they would on a real link.
// Writes respect the write deadline and any installed fault function. p is
// copied, as a socket copies, so the caller may reuse it once Write returns.
func (c *Conn) Write(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
	}
	select {
	case <-c.peer.closed:
		return 0, io.ErrClosedPipe
	default:
	}
	c.mu.Lock()
	deadline := c.writeDeadline
	fault := c.fault
	c.mu.Unlock()
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		d := time.Until(deadline)
		if d <= 0 {
			return 0, timeoutError{}
		}
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	var extra time.Duration
	if fault != nil {
		f := fault(len(p))
		if f.Reset {
			return 0, ErrConnReset
		}
		if f.Drop {
			// The payload vanishes in the network; the writer cannot tell.
			return len(p), nil
		}
		extra = f.Delay
	}
	if c.cfg.Bandwidth > 0 && len(p) > 0 {
		d := time.Duration(float64(len(p)) / float64(c.cfg.Bandwidth) * float64(time.Second))
		if !deadline.IsZero() && time.Until(deadline) < d {
			wait.SleepUntil(deadline)
			return 0, timeoutError{}
		}
		wait.Sleep(d)
	}
	it := item{data: copyWrite(p), at: time.Now().Add(c.cfg.Latency + extra)}
	var err error
	select {
	case c.peer.recv <- it:
		return len(p), nil
	case <-c.peer.closed:
		err = io.ErrClosedPipe
	case <-c.closed:
		err = net.ErrClosed
	case <-timeout:
		err = timeoutError{}
	}
	recycle(it.data)
	return 0, err
}

// Read receives data, honouring the link latency and any read deadline.
func (c *Conn) Read(p []byte) (int, error) {
	it := c.leftover
	if it.data == nil {
		c.mu.Lock()
		deadline := c.readDeadline
		c.mu.Unlock()
		var timeout <-chan time.Time
		if !deadline.IsZero() {
			d := time.Until(deadline)
			if d <= 0 {
				return 0, timeoutError{}
			}
			t := time.NewTimer(d)
			defer t.Stop()
			timeout = t.C
		}
		// Prefer queued data over close so buffered bytes drain after the
		// peer closes, matching TCP semantics.
		select {
		case it = <-c.recv:
		default:
			select {
			case it = <-c.recv:
			case <-c.closed:
				return 0, io.EOF
			case <-c.peer.closed:
				// The peer closed, but data may still be queued.
				select {
				case it = <-c.recv:
				default:
					return 0, io.EOF
				}
			case <-timeout:
				return 0, timeoutError{}
			}
		}
	}
	wait.SleepUntil(it.at)
	n := copy(p, it.data[c.off:])
	if c.off += n; c.off < len(it.data) {
		c.leftover = it
	} else {
		c.leftover, c.off = item{}, 0
		recycle(it.data)
	}
	return n, nil
}

// Close closes this endpoint; the peer's reads return EOF once drained.
func (c *Conn) Close() error {
	c.closeOne.Do(func() { close(c.closed) })
	return nil
}

// LocalAddr returns the endpoint's simulated address.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr returns the peer's simulated address.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline sets both read and write deadlines.
func (c *Conn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	return c.SetWriteDeadline(t)
}

// SetReadDeadline sets the read deadline.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return nil
}

// SetWriteDeadline sets the write deadline: writes that would block past it
// (serialisation delay or a full receive queue) fail with a timeout error.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return nil
}

type timeoutError struct{}

func (timeoutError) Error() string   { return "netsim: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

var _ net.Conn = (*Conn)(nil)

// Network is a collection of named listeners reachable by Dial, each with a
// per-address link configuration.
type Network struct {
	mu         sync.Mutex
	listeners  map[string]*Listener
	links      map[string]LinkConfig
	faults     map[string]FaultFunc
	dialFaults map[string]func() error
	conns      map[string][]*Conn // live endpoints per address, for fault updates
}

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	return &Network{
		listeners:  make(map[string]*Listener),
		links:      make(map[string]LinkConfig),
		faults:     make(map[string]FaultFunc),
		dialFaults: make(map[string]func() error),
		conns:      make(map[string][]*Conn),
	}
}

// SetLink configures the link used for future connections to addr.
func (n *Network) SetLink(address string, cfg LinkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[address] = cfg
}

// SetLinkFault installs a fault function on both directions of every live
// and future connection to the address. A nil function clears it.
func (n *Network) SetLinkFault(address string, f FaultFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if f == nil {
		delete(n.faults, address)
	} else {
		n.faults[address] = f
	}
	for _, c := range n.conns[address] {
		c.SetFault(f)
	}
}

// SetDialFault makes future Dial calls to the address fail with the error
// returned by f (nil error or nil f restores normal dialing). It models a
// partition between the dialer and the address.
func (n *Network) SetDialFault(address string, f func() error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if f == nil {
		delete(n.dialFaults, address)
	} else {
		n.dialFaults[address] = f
	}
}

// Listener accepts simulated connections for one address.
type Listener struct {
	network *Network
	address string
	backlog chan *Conn
	closed  chan struct{}
	once    sync.Once
}

// ErrAddressInUse is returned by Listen for a duplicate address.
var ErrAddressInUse = errors.New("netsim: address already in use")

// ErrConnectionRefused is returned by Dial when nothing listens on the
// address.
var ErrConnectionRefused = errors.New("netsim: connection refused")

// Listen registers a listener on the address.
func (n *Network) Listen(address string) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[address]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddressInUse, address)
	}
	l := &Listener{
		network: n,
		address: address,
		backlog: make(chan *Conn, 128),
		closed:  make(chan struct{}),
	}
	n.listeners[address] = l
	return l, nil
}

// Dial connects to a listening address over that address's configured link.
func (n *Network) Dial(address string) (net.Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[address]
	cfg := n.links[address]
	fault := n.faults[address]
	dialFault := n.dialFaults[address]
	n.mu.Unlock()
	if dialFault != nil {
		if err := dialFault(); err != nil {
			return nil, fmt.Errorf("netsim: dial %s: %w", address, err)
		}
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrConnectionRefused, address)
	}
	clientEnd, serverEnd := NamedPipe(cfg, "dialer", address)
	if fault != nil {
		clientEnd.SetFault(fault)
		serverEnd.SetFault(fault)
	}
	n.mu.Lock()
	live := n.conns[address][:0]
	for _, c := range n.conns[address] {
		select {
		case <-c.closed:
		default:
			live = append(live, c)
		}
	}
	n.conns[address] = append(live, clientEnd, serverEnd)
	n.mu.Unlock()
	select {
	case l.backlog <- serverEnd:
		return clientEnd, nil
	case <-l.closed:
		return nil, fmt.Errorf("%w: %s", ErrConnectionRefused, address)
	}
}

// Accept waits for the next inbound connection.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

// Close stops the listener and deregisters its address.
func (l *Listener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		l.network.mu.Lock()
		delete(l.network.listeners, l.address)
		l.network.mu.Unlock()
	})
	return nil
}

// Addr returns the listener's simulated address.
func (l *Listener) Addr() net.Addr { return addr(l.address) }

var _ net.Listener = (*Listener)(nil)
