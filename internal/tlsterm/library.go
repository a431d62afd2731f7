// Package tlsterm implements LibSEAL's TLS termination layer (§4): a secure
// channel protocol (ECDHE + HKDF + AES-GCM) exposed through an
// OpenSSL/LibreSSL-shaped API. The server side can run either natively
// in-process (AcceptNative — the paper's LibreSSL baseline) or inside a
// simulated SGX enclave (Library/SSL), where protocol code and session keys
// are enclave-resident and network BIOs and API wrappers stay outside.
//
// No enclave thread ever waits on the network: the outside wrapper reads one
// ciphertext frame from the BIO before the ecall and passes it in, and an
// ecall that produces frames returns them for the wrapper to write after it
// has exited (DESIGN.md §4).
package tlsterm

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/enclave"
	"libseal/internal/pki"
	"libseal/internal/telemetry"
)

// Termination-layer telemetry: handshake latency is the connection-setup
// cost of moving TLS inside the enclave (§7.1); record/byte counters size
// the steady-state interception workload.
var (
	mHandshakes       = telemetry.NewCounter("tlsterm.handshakes", "handshakes")
	mHandshakeLatency = telemetry.NewHistogram("tlsterm.handshake.latency", "ns")
	mRecordsRead      = telemetry.NewCounter("tlsterm.records.read", "records")
	mRecordsWritten   = telemetry.NewCounter("tlsterm.records.written", "records")
	mBytesRead        = telemetry.NewCounter("tlsterm.bytes.read", "bytes")
	mBytesWritten     = telemetry.NewCounter("tlsterm.bytes.written", "bytes")
)

// Direction distinguishes intercepted request and response data.
type Direction int

// Interception directions.
const (
	DirRead  Direction = iota // client -> service (requests)
	DirWrite                  // service -> client (responses)
)

// Tap observes every byte of plaintext crossing the termination point. It
// executes inside the enclave, within the SSL_read/SSL_write ecall — this is
// where LibSEAL's audit logger attaches (Fig. 1, step 3).
type Tap interface {
	// OnData sees plaintext read from (DirRead) or written to (DirWrite)
	// the connection. For writes it may return a rewritten buffer (LibSEAL
	// uses this to inject the in-band Libseal-Check-Result header); a nil
	// return keeps the data unchanged. An error aborts the I/O operation:
	// nothing of a refused write reaches the wire. data is valid only for
	// the duration of the call — it is the caller's write buffer or the
	// connection's reused record buffer — so a tap copies what it keeps.
	OnData(env *asyncall.Env, connID uint64, dir Direction, data []byte) ([]byte, error)
	// OnClose runs when the connection shuts down.
	OnClose(env *asyncall.Env, connID uint64)
}

// Optimizations toggles the transition-reduction techniques of §4.2.
// Disabling one reintroduces the enclave crossings it eliminates, which the
// §4.2 ablation benchmark measures.
type Optimizations struct {
	// MemoryPool preallocates outside buffers so the enclave does not ocall
	// malloc/free for every BIO object.
	MemoryPool bool
	// InEnclaveLocksRNG uses SGX-SDK locks and in-enclave randomness
	// instead of ocalls to pthreads and the random syscall.
	InEnclaveLocksRNG bool
	// ExDataOutside stores application-specific data attached to TLS
	// objects outside the enclave, avoiding ecalls on every access.
	ExDataOutside bool
}

// AllOptimizations enables every §4.2 technique (the paper's default).
func AllOptimizations() Optimizations {
	return Optimizations{MemoryPool: true, InEnclaveLocksRNG: true, ExDataOutside: true}
}

// LibraryConfig configures an enclave-backed TLS library instance.
type LibraryConfig struct {
	Cert              *pki.Certificate
	Key               *ecdsa.PrivateKey // provisioned into the enclave
	RequireClientCert bool
	ClientRoots       *pki.Pool
	Opts              Optimizations
	Tap               Tap
}

// insideState is the enclave-resident part of the library: the server
// configuration with the private key — written once, by NewLibrary's
// provisioning ecall — and all per-connection session secrets. It must only
// be touched from within an ecall.
type insideState struct {
	server   *ServerConfig
	mu       sync.Mutex
	sessions map[uint64]*session
}

// session is one connection's enclave-resident state: half-open (hs set)
// between the two handshake ecalls, established (rd and wr set) after.
type session struct {
	hs     *halfOpen
	rd, wr *sessionKeys
	peer   *pki.Certificate
	exData map[string]any // used when ExDataOutside is disabled
}

// Library is a LibSEAL TLS library instance bound to one enclave bridge.
// It is the drop-in replacement servers link against.
type Library struct {
	bridge *asyncall.Bridge
	cfg    LibraryConfig
	inside *insideState

	nextID atomic.Uint64
}

// NewLibrary provisions a library instance. The private key is transferred
// into the enclave-resident state and the outside copy is not retained.
func NewLibrary(bridge *asyncall.Bridge, cfg LibraryConfig) (*Library, error) {
	if cfg.Cert == nil || cfg.Key == nil {
		return nil, fmt.Errorf("tlsterm: certificate and key required")
	}
	lib := &Library{
		bridge: bridge,
		cfg:    cfg,
		inside: &insideState{sessions: make(map[uint64]*session)},
	}
	server := &ServerConfig{Cert: cfg.Cert, Key: cfg.Key, RequireClientCert: cfg.RequireClientCert, ClientRoots: cfg.ClientRoots}
	lib.cfg.Key = nil // the outside copy is dropped; only the enclave holds it
	err := bridge.Call(func(env *asyncall.Env) error {
		lib.inside.server = server
		return nil
	})
	if err != nil {
		return nil, err
	}
	return lib, nil
}

// GenerateEnclaveIdentity creates a fresh ECDSA key inside the enclave and
// returns its public half together with a quote whose report data commits to
// the key hash. A CA can then issue a certificate that clients verify as
// belonging to a genuine LibSEAL enclave (§6.3). Use the returned setter to
// install the issued certificate.
func GenerateEnclaveIdentity(bridge *asyncall.Bridge) (*ecdsa.PublicKey, enclave.Quote, *ecdsa.PrivateKey, error) {
	var pub *ecdsa.PublicKey
	var quote enclave.Quote
	var key *ecdsa.PrivateKey
	err := bridge.Call(func(env *asyncall.Env) error {
		var err error
		key, err = ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
		if err != nil {
			return err
		}
		pub = &key.PublicKey
		cert := &pki.Certificate{PubKey: pub}
		keyHash := cert.KeyHash()
		quote, err = env.Ctx.Quote(keyHash[:])
		return err
	})
	if err != nil {
		return nil, enclave.Quote{}, nil, err
	}
	return pub, quote, key, nil
}

// SSL is one terminated TLS connection: the OpenSSL SSL* equivalent. The
// struct itself lives outside the enclave; secrets stay inside, referenced
// by ID.
type SSL struct {
	lib  *Library
	id   uint64
	conn net.Conn
	fr   *frameReader // network BIO, read by the wrapper outside any ecall

	// readMu serialises SSL_read (and the handshake); writeMu serialises
	// SSL_write; stateMu guards closed and the outside ex_data so that
	// outside code can reach them while I/O is blocked.
	readMu  sync.Mutex
	writeMu sync.Mutex
	stateMu sync.Mutex

	leftover []byte
	out      sealedFrames // frames sealed by an ecall, written after it; under writeMu
	exData   map[string]any
	closed   bool
}

// NewSSL wraps an accepted transport connection.
func (lib *Library) NewSSL(conn net.Conn) *SSL {
	return &SSL{
		lib:    lib,
		id:     lib.nextID.Add(1),
		conn:   conn,
		fr:     newFrameReader(conn),
		exData: make(map[string]any),
	}
}

// chargeUnoptimized models the extra crossings that the §4.2 optimisations
// eliminate: without the memory pool every BIO buffer is malloc'd/freed via
// ocall, and without SDK locks/RNG each record operation ocalls into
// pthreads or the random syscall.
func (s *SSL) chargeUnoptimized(env *asyncall.Env) error {
	if !s.lib.cfg.Opts.MemoryPool {
		if err := env.Ocall(func() error { return nil }); err != nil { // malloc
			return err
		}
		if err := env.Ocall(func() error { return nil }); err != nil { // free
			return err
		}
	}
	if !s.lib.cfg.Opts.InEnclaveLocksRNG {
		if err := env.Ocall(func() error { return nil }); err != nil { // pthread lock
			return err
		}
	}
	return nil
}

// handshakeStep is one leg of SSL_accept: the wrapper waits for the peer's
// frame outside, a single ecall turns it into the reply frame, and the
// wrapper writes that after the ecall has exited. No enclave thread exists
// for this connection while it waits on the network.
func (s *SSL) handshakeStep(step func(env *asyncall.Env, ftype byte, payload []byte) ([]byte, error)) error {
	ftype, payload, err := s.fr.next()
	if err != nil {
		return err
	}
	var reply []byte
	err = s.lib.bridge.Call(func(env *asyncall.Env) error {
		var err error
		reply, err = step(env, ftype, payload)
		return err
	})
	if err != nil {
		return err
	}
	_, err = s.conn.Write(reply)
	return err
}

// Accept runs the server-side handshake inside the enclave (SSL_accept) as
// two ecalls, ClientHello in / ServerHello out and ClientFinished in /
// ServerFinished out. What the second needs from the first — transcript and
// derived keys — stays inside, in the connection's half-open session.
func (s *SSL) Accept() error {
	s.readMu.Lock()
	defer s.readMu.Unlock()
	hsStart := time.Now()
	err := s.handshakeStep(s.acceptHello)
	if err == nil {
		err = s.handshakeStep(s.acceptFinished)
	}
	if err != nil {
		// A leg never came, was refused or could not be answered: the
		// half-open session must not outlive the attempt.
		_ = s.lib.bridge.Call(func(*asyncall.Env) error {
			s.lib.dropSession(s.id)
			return nil
		})
		return err
	}
	mHandshakes.Inc()
	telemetry.ObserveSince(mHandshakeLatency, "tlsterm.handshake", hsStart)
	return nil
}

// acceptHello is the first handshake ecall: the boundary's costs, then the
// shared hello step on the enclave-resident configuration, then the half-open
// state parked inside.
func (s *SSL) acceptHello(env *asyncall.Env, ftype byte, payload []byte) ([]byte, error) {
	if err := s.chargeUnoptimized(env); err != nil {
		return nil, err
	}
	env.Ctx.ChargeData(len(payload))
	if !s.lib.cfg.Opts.InEnclaveLocksRNG {
		// Entropy fetched from the host via ocall.
		if err := env.Ocall(func() error { return nil }); err != nil {
			return nil, err
		}
	}
	hs, reply, err := s.lib.inside.server.hello(env.Ctx.Random, ftype, payload)
	if err != nil {
		return nil, err
	}
	if err := s.park(&session{hs: hs}); err != nil {
		return nil, err
	}
	return reply, nil
}

// acceptFinished is the second handshake ecall: it takes the half-open state
// out — whatever happens next, that handshake cannot be resumed — runs the
// shared finished step on it and parks the established session.
func (s *SSL) acceptFinished(env *asyncall.Env, ftype byte, payload []byte) ([]byte, error) {
	hs := s.lib.takeHalfOpen(s.id)
	if hs == nil {
		return nil, ErrClosed // never begun, already finished, or closed between the two legs
	}
	env.Ctx.ChargeData(len(payload))
	peer, reply, err := s.lib.inside.server.finished(hs, ftype, payload)
	if err != nil {
		return nil, err
	}
	if err := s.park(&session{rd: hs.keys.client, wr: hs.keys.server, peer: peer, exData: make(map[string]any)}); err != nil {
		return nil, err
	}
	return reply, nil
}

// park stores the connection's session: half-open after the first handshake
// ecall, established after the second. A connection has one handshake, so an
// id that already has a session refuses another. Close marks the connection
// closed before its ecall drops the session, so a session parked here is
// either refused now or dropped by that ecall: none outlives Close. Must run
// inside.
func (s *SSL) park(sess *session) error {
	in := s.lib.inside
	in.mu.Lock()
	defer in.mu.Unlock()
	s.stateMu.Lock()
	closed := s.closed
	s.stateMu.Unlock()
	if closed {
		return ErrClosed
	}
	if in.sessions[s.id] != nil {
		return fmt.Errorf("%w: connection already has a session", ErrHandshakeFailed)
	}
	in.sessions[s.id] = sess
	return nil
}

// takeHalfOpen removes and returns the connection's half-open handshake; nil
// if it has none (an established session is left alone). Must run inside.
func (lib *Library) takeHalfOpen(id uint64) *halfOpen {
	lib.inside.mu.Lock()
	defer lib.inside.mu.Unlock()
	sess := lib.inside.sessions[id]
	if sess == nil || sess.hs == nil {
		return nil
	}
	delete(lib.inside.sessions, id)
	return sess.hs
}

// dropSession removes the connection's session, half-open or established,
// and returns it (nil if there was none). Must run inside.
func (lib *Library) dropSession(id uint64) *session {
	lib.inside.mu.Lock()
	defer lib.inside.mu.Unlock()
	sess := lib.inside.sessions[id]
	delete(lib.inside.sessions, id)
	return sess
}

// lookupSession fetches the enclave-resident established session. Must run
// inside.
func (lib *Library) lookupSession(id uint64) (*session, error) {
	lib.inside.mu.Lock()
	defer lib.inside.mu.Unlock()
	sess, ok := lib.inside.sessions[id]
	if !ok || sess.hs != nil {
		return nil, ErrClosed
	}
	return sess, nil
}

// Read decrypts application data (SSL_read). The wrapper takes one
// ciphertext frame from the network BIO before entering the enclave; inside,
// the record is opened in place and the plaintext passes through the Tap
// before being returned to the caller.
func (s *SSL) Read(p []byte) (int, error) {
	s.readMu.Lock()
	defer s.readMu.Unlock()
	if len(s.leftover) == 0 {
		ftype, payload, err := s.fr.next()
		if err != nil {
			return 0, err
		}
		var plaintext []byte
		err = s.lib.bridge.Call(func(env *asyncall.Env) error {
			sess, err := s.lib.lookupSession(s.id)
			if err != nil {
				return err
			}
			if err := s.chargeUnoptimized(env); err != nil {
				return err
			}
			env.Ctx.ChargeData(len(payload))
			if plaintext, err = sess.rd.openFrame(ftype, payload); err != nil {
				return err // io.EOF for the peer's close alert
			}
			mRecordsRead.Inc()
			mBytesRead.Add(int64(len(plaintext)))
			if tap := s.lib.cfg.Tap; tap != nil {
				_, err = tap.OnData(env, s.id, DirRead, plaintext)
			}
			return err
		})
		if err != nil {
			return 0, err
		}
		s.leftover = plaintext
	}
	n := copy(p, s.leftover)
	s.leftover = s.leftover[n:]
	return n, nil
}

// Write encrypts and sends application data (SSL_write). Plaintext passes
// through the Tap inside the enclave before encryption; the sealed frames
// come back out with the ecall and the wrapper writes them to the network
// BIO.
func (s *SSL) Write(p []byte) (int, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.stateMu.Lock()
	closed := s.closed
	s.stateMu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	err := s.lib.bridge.Call(func(env *asyncall.Env) error {
		sess, err := s.lib.lookupSession(s.id)
		if err != nil {
			return err
		}
		if err := s.chargeUnoptimized(env); err != nil {
			return err
		}
		payload := p
		if tap := s.lib.cfg.Tap; tap != nil {
			rewritten, err := tap.OnData(env, s.id, DirWrite, payload)
			if err != nil {
				return err
			}
			if rewritten != nil {
				payload = rewritten
			}
		}
		env.Ctx.ChargeData(len(payload))
		records, err := s.out.sealData(sess.wr, payload)
		if err != nil {
			return err
		}
		mRecordsWritten.Add(int64(records))
		mBytesWritten.Add(int64(len(payload)))
		if !s.lib.cfg.Opts.MemoryPool {
			// One malloc ocall per record buffer without the pool.
			for ; records > 0; records-- {
				if err := env.Ocall(func() error { return nil }); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err = s.out.flush(s.conn, err); err != nil {
		return 0, err
	}
	// Report the caller's byte count even if the tap rewrote the payload,
	// preserving io.Writer semantics for the application.
	return len(p), nil
}

// Close tears the session down (SSL_shutdown + free).
func (s *SSL) Close() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.stateMu.Lock()
	if s.closed {
		s.stateMu.Unlock()
		return nil
	}
	s.closed = true
	s.stateMu.Unlock()
	err := s.lib.bridge.Call(func(env *asyncall.Env) error {
		sess := s.lib.dropSession(s.id)
		if tap := s.lib.cfg.Tap; tap != nil {
			tap.OnClose(env, s.id)
		}
		if sess != nil && sess.hs == nil {
			return s.out.seal(sess.wr, frameAlert, nil)
		}
		return nil
	})
	_ = s.out.flush(s.conn, err) // best effort: the peer may be gone already
	return s.conn.Close()
}

// SetExData attaches application data to the connection, like
// SSL_set_ex_data. With the ExDataOutside optimisation the value stays in
// the outside SSL object; otherwise every access crosses into the
// enclave (§4.2, optimisation 3).
func (s *SSL) SetExData(key string, v any) error {
	if s.lib.cfg.Opts.ExDataOutside {
		s.stateMu.Lock()
		s.exData[key] = v
		s.stateMu.Unlock()
		return nil
	}
	return s.lib.bridge.Call(func(env *asyncall.Env) error {
		sess, err := s.lib.lookupSession(s.id)
		if err != nil {
			return err
		}
		s.lib.inside.mu.Lock()
		sess.exData[key] = v
		s.lib.inside.mu.Unlock()
		return nil
	})
}

// GetExData retrieves application data attached with SetExData.
func (s *SSL) GetExData(key string) (any, error) {
	if s.lib.cfg.Opts.ExDataOutside {
		s.stateMu.Lock()
		defer s.stateMu.Unlock()
		return s.exData[key], nil
	}
	var out any
	err := s.lib.bridge.Call(func(env *asyncall.Env) error {
		sess, err := s.lib.lookupSession(s.id)
		if err != nil {
			return err
		}
		s.lib.inside.mu.Lock()
		out = sess.exData[key]
		s.lib.inside.mu.Unlock()
		return nil
	})
	return out, err
}
