// Package tlsterm implements LibSEAL's TLS termination layer (§4): a secure
// channel protocol (ECDHE + HKDF + AES-GCM) exposed through an
// OpenSSL/LibreSSL-shaped API. The server side can run either natively
// in-process (AcceptNative — the paper's LibreSSL baseline) or inside a
// simulated SGX enclave (Library/SSL), where protocol code and session keys
// are enclave-resident, network BIOs and API wrappers stay outside, shadow
// structures expose sanitised connection state, and application callbacks
// are invoked through secure ocall trampolines.
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
	"io"
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

func cryptoRandRead(b []byte) (int, error) { return rand.Read(b) }

// Direction distinguishes intercepted request and response data.
type Direction int

// Interception directions.
const (
	DirRead  Direction = iota // client -> service (requests)
	DirWrite                  // service -> client (responses)
)

func (d Direction) String() string {
	if d == DirRead {
		return "read"
	}
	return "write"
}

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

// insideState is the enclave-resident part of the library: the private key
// and all per-connection session secrets. It must only be touched from
// within an ecall.
type insideState struct {
	mu       sync.Mutex
	key      *ecdsa.PrivateKey
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

// halfOpen is what the first handshake ecall leaves for the second.
type halfOpen struct {
	tr   *transcript
	keys *keySchedule
}

// Library is a LibSEAL TLS library instance bound to one enclave bridge.
// It is the drop-in replacement servers link against.
type Library struct {
	bridge *asyncall.Bridge
	cfg    LibraryConfig
	inside *insideState

	nextID atomic.Uint64

	cbMu      sync.Mutex
	callbacks map[uint64]func(state string)

	pool sync.Pool // outside memory pool for BIO buffers
}

// NewLibrary provisions a library instance. The private key is transferred
// into the enclave-resident state and the outside copy is not retained.
func NewLibrary(bridge *asyncall.Bridge, cfg LibraryConfig) (*Library, error) {
	if cfg.Cert == nil || cfg.Key == nil {
		return nil, fmt.Errorf("tlsterm: certificate and key required")
	}
	lib := &Library{
		bridge:    bridge,
		cfg:       cfg,
		inside:    &insideState{sessions: make(map[uint64]*session)},
		callbacks: make(map[uint64]func(string)),
	}
	lib.pool.New = func() any { b := make([]byte, 0, frameHeaderLen+maxFramePayload); return &b }
	key := cfg.Key
	lib.cfg.Key = nil // the outside copy is dropped; only the enclave holds it
	err := bridge.Call(func(env *asyncall.Env) error {
		lib.inside.mu.Lock()
		defer lib.inside.mu.Unlock()
		lib.inside.key = key
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

// Bridge returns the enclave bridge the library uses.
func (lib *Library) Bridge() *asyncall.Bridge { return lib.bridge }

// ShadowSSL is the sanitised, outside-resident copy of a connection's TLS
// state (§4.1 "Shadowing"). It deliberately contains no key material; tests
// assert this by reflection.
type ShadowSSL struct {
	State        string
	Established  bool
	PeerSubject  string
	BytesRead    int64
	BytesWritten int64
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
	// SSL_write; stateMu guards the shadow structure and ex_data so that
	// outside code can inspect them while I/O is blocked.
	readMu  sync.Mutex
	writeMu sync.Mutex
	stateMu sync.Mutex

	shadow   ShadowSSL
	leftover []byte
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
		shadow: ShadowSSL{State: "init"},
		exData: make(map[string]any),
	}
}

// SetInfoCallback registers an application callback invoked on handshake
// state transitions. The function itself stays outside the enclave; enclave
// code reaches it through an ocall trampoline keyed by the connection ID,
// mirroring the paper's secure-callback listing (§4.1).
func (s *SSL) SetInfoCallback(cb func(state string)) {
	s.lib.cbMu.Lock()
	s.lib.callbacks[s.id] = cb
	s.lib.cbMu.Unlock()
}

// invokeCallback is the outside half of the callback trampoline.
func (lib *Library) invokeCallback(id uint64, state string) {
	lib.cbMu.Lock()
	cb := lib.callbacks[id]
	lib.cbMu.Unlock()
	if cb != nil {
		cb(state)
	}
}

// fireCallback runs inside the enclave and performs the trampoline ocall if
// a callback is registered.
func (s *SSL) fireCallback(env *asyncall.Env, state string) {
	s.lib.cbMu.Lock()
	registered := s.lib.callbacks[s.id] != nil
	s.lib.cbMu.Unlock()
	if !registered {
		return
	}
	_ = env.Ocall(func() error {
		s.lib.invokeCallback(s.id, state)
		return nil
	})
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

// getBuf obtains a frame buffer from the outside memory pool.
func (lib *Library) getBuf() *[]byte { return lib.pool.Get().(*[]byte) }

// putBuf returns a buffer to the pool.
func (lib *Library) putBuf(b *[]byte) {
	*b = (*b)[:0]
	lib.pool.Put(b)
}

// sealedFrames is what a record-writing ecall hands back to the outside
// wrapper: complete wire frames, in sequence order, packed into buffers of
// the outside memory pool. A buffer takes whole frames while they fit, so a
// small frame group leaves as one transport write and a large transfer as
// one write per full-size record.
type sealedFrames struct {
	lib  *Library
	bufs []*[]byte
}

// seal appends one record's frame. Runs inside the enclave.
func (sf *sealedFrames) seal(sk *sessionKeys, ftype byte, plaintext []byte) error {
	var buf *[]byte
	if n := len(sf.bufs); n > 0 && cap(*sf.bufs[n-1])-len(*sf.bufs[n-1]) >= sk.sealedFrameLen(len(plaintext)) {
		buf = sf.bufs[n-1]
	} else {
		buf = sf.lib.getBuf()
		sf.bufs = append(sf.bufs, buf)
	}
	frame, err := sk.appendFrame(*buf, ftype, plaintext)
	if err != nil {
		return err
	}
	*buf = frame
	return nil
}

// flush is the outside half: it writes the frames to the network BIO (when
// the ecall that sealed them succeeded) and returns the buffers to the pool.
// The caller holds writeMu from before the ecall until flush returns, so the
// sequence numbers consumed inside reach the wire in order.
func (sf *sealedFrames) flush(conn net.Conn, err error) error {
	for _, buf := range sf.bufs {
		if err == nil {
			_, err = conn.Write(*buf)
		}
		sf.lib.putBuf(buf)
	}
	sf.bufs = nil
	return err
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
	var peer *pki.Certificate
	err := s.handshakeStep(s.acceptHello)
	if err == nil {
		err = s.handshakeStep(func(env *asyncall.Env, ftype byte, payload []byte) (reply []byte, err error) {
			peer, reply, err = s.acceptFinished(env, ftype, payload)
			return reply, err
		})
	}
	if err != nil {
		// A leg never came, was refused or could not be answered: the
		// half-open session must not outlive the attempt.
		_ = s.lib.bridge.Call(func(*asyncall.Env) error {
			s.lib.dropSession(s.id)
			return nil
		})
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if err != nil {
		s.shadow.State = "error"
		return err
	}
	// Synchronise the sanitised shadow copy (no key material).
	mHandshakes.Inc()
	telemetry.ObserveSince(mHandshakeLatency, "tlsterm.handshake", hsStart)
	s.shadow.State = "established"
	s.shadow.Established = true
	if peer != nil {
		s.shadow.PeerSubject = peer.Subject
	}
	return nil
}

// acceptHello is the first handshake ecall: it consumes the ClientHello,
// produces the signed ServerHello frame and leaves the half-open session
// inside. The ephemeral private key does not outlive it.
func (s *SSL) acceptHello(env *asyncall.Env, ftype byte, payload []byte) ([]byte, error) {
	s.fireCallback(env, "accept:start")
	if err := s.chargeUnoptimized(env); err != nil {
		return nil, err
	}
	if ftype != frameClientHello {
		return nil, fmt.Errorf("%w: expected ClientHello, got frame %d", ErrHandshakeFailed, ftype)
	}
	env.Ctx.ChargeData(len(payload))
	ch, err := parseClientHello(payload)
	if err != nil {
		return nil, err
	}
	tr := &transcript{}
	tr.add(payload)

	if !s.lib.cfg.Opts.InEnclaveLocksRNG {
		// Entropy fetched from the host via ocall.
		if err := env.Ocall(func() error { return nil }); err != nil {
			return nil, err
		}
	}
	eph, err := generateEphemeral()
	if err != nil {
		return nil, err
	}
	sh := &serverHello{
		EphPub:   eph.PublicKey().Bytes(),
		Cert:     s.lib.cfg.Cert.Marshal(),
		WantCert: s.lib.cfg.RequireClientCert,
	}
	if err := env.Ctx.Random(sh.Random[:]); err != nil {
		return nil, err
	}
	s.lib.inside.mu.Lock()
	key := s.lib.inside.key
	s.lib.inside.mu.Unlock()
	sigTr := &transcript{}
	sigTr.add(payload)
	sigTr.add(sh.Random[:])
	sigTr.add(sh.EphPub)
	sigTr.add(sh.Cert)
	if sh.SigR, sh.SigS, err = signTranscript(key, sigTr); err != nil {
		return nil, err
	}
	shBytes := sh.marshal()
	tr.add(shBytes)

	shared, err := ecdhShared(eph, ch.EphPub)
	if err != nil {
		return nil, err
	}
	keys, err := deriveKeys(shared, ch.Random[:], sh.Random[:])
	if err != nil {
		return nil, err
	}
	s.lib.inside.mu.Lock()
	s.lib.inside.sessions[s.id] = &session{hs: &halfOpen{tr: tr, keys: keys}}
	s.lib.inside.mu.Unlock()
	return frameBytes(frameServerHello, shBytes), nil
}

// acceptFinished is the second handshake ecall: it verifies the
// ClientFinished against the half-open session, establishes the session and
// produces the ServerFinished frame.
func (s *SSL) acceptFinished(env *asyncall.Env, ftype byte, payload []byte) (*pki.Certificate, []byte, error) {
	s.lib.inside.mu.Lock()
	sess := s.lib.inside.sessions[s.id]
	s.lib.inside.mu.Unlock()
	if sess == nil || sess.hs == nil {
		return nil, nil, ErrClosed // closed between the two legs
	}
	tr, keys := sess.hs.tr, sess.hs.keys
	if ftype != frameClientFinished {
		return nil, nil, fmt.Errorf("%w: expected ClientFinished, got frame %d", ErrHandshakeFailed, ftype)
	}
	env.Ctx.ChargeData(len(payload))
	cfPlain, err := keys.client.open(frameClientFinished, payload)
	if err != nil {
		return nil, nil, err
	}
	cf, err := parseClientFinished(cfPlain)
	if err != nil {
		return nil, nil, err
	}
	if !macEqual(cf.MAC, finishedMAC(keys.finKey, tr, "client finished")) {
		return nil, nil, ErrFinishedMismatch
	}
	var peer *pki.Certificate
	if s.lib.cfg.RequireClientCert {
		if !cf.HasCert {
			return nil, nil, ErrCertRequired
		}
		peer, err = pki.Unmarshal(cf.Cert)
		if err != nil {
			return nil, nil, err
		}
		if s.lib.cfg.ClientRoots == nil {
			return nil, nil, fmt.Errorf("%w: no client roots configured", ErrCertUntrusted)
		}
		if err := s.lib.cfg.ClientRoots.Verify(peer); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrCertUntrusted, err)
		}
		if !verifyTranscript(peer.PubKey, tr, cf.SigR, cf.SigS) {
			return nil, nil, fmt.Errorf("%w: client transcript signature invalid", ErrHandshakeFailed)
		}
	}
	tr.add(cfPlain)

	frame, err := keys.server.sealFrame(frameServerFinished, finishedMAC(keys.finKey, tr, "server finished"))
	if err != nil {
		return nil, nil, err
	}
	established := &session{
		rd:     keys.client,
		wr:     keys.server,
		peer:   peer,
		exData: make(map[string]any),
	}
	s.lib.inside.mu.Lock()
	if s.lib.inside.sessions[s.id] != sess {
		s.lib.inside.mu.Unlock()
		return nil, nil, ErrClosed
	}
	s.lib.inside.sessions[s.id] = established
	s.lib.inside.mu.Unlock()
	s.fireCallback(env, "accept:done")
	return peer, frame, nil
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
		eof := false
		err = s.lib.bridge.Call(func(env *asyncall.Env) error {
			sess, err := s.lib.lookupSession(s.id)
			if err != nil {
				return err
			}
			if err := s.chargeUnoptimized(env); err != nil {
				return err
			}
			switch ftype {
			case frameAppData:
				env.Ctx.ChargeData(len(payload))
				pt, err := sess.rd.open(frameAppData, payload)
				if err != nil {
					return err
				}
				mRecordsRead.Inc()
				mBytesRead.Add(int64(len(pt)))
				if tap := s.lib.cfg.Tap; tap != nil {
					if _, err := tap.OnData(env, s.id, DirRead, pt); err != nil {
						return err
					}
				}
				plaintext = pt
			case frameAlert:
				eof = true
			default:
				return fmt.Errorf("tlsterm: unexpected frame type %d", ftype)
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		if eof {
			return 0, io.EOF
		}
		s.leftover = plaintext
		s.stateMu.Lock()
		s.shadow.BytesRead += int64(len(plaintext))
		s.stateMu.Unlock()
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
	total := 0
	frames := sealedFrames{lib: s.lib}
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
		rest := payload
		for len(rest) > 0 {
			chunk := rest
			if len(chunk) > maxRecordPlaintext {
				chunk = chunk[:maxRecordPlaintext]
			}
			env.Ctx.ChargeData(len(chunk))
			if err := frames.seal(sess.wr, frameAppData, chunk); err != nil {
				return err
			}
			mRecordsWritten.Inc()
			mBytesWritten.Add(int64(len(chunk)))
			total += len(chunk)
			rest = rest[len(chunk):]
			if !s.lib.cfg.Opts.MemoryPool {
				// One malloc ocall per record buffer without the pool.
				if err := env.Ocall(func() error { return nil }); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err = frames.flush(s.conn, err); err != nil {
		return 0, err
	}
	s.stateMu.Lock()
	s.shadow.BytesWritten += int64(total)
	s.stateMu.Unlock()
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
	frames := sealedFrames{lib: s.lib}
	err := s.lib.bridge.Call(func(env *asyncall.Env) error {
		sess := s.lib.dropSession(s.id)
		if tap := s.lib.cfg.Tap; tap != nil {
			tap.OnClose(env, s.id)
		}
		if sess != nil && sess.hs == nil {
			return frames.seal(sess.wr, frameAlert, nil)
		}
		return nil
	})
	_ = frames.flush(s.conn, err) // best effort: the peer may be gone already
	s.lib.cbMu.Lock()
	delete(s.lib.callbacks, s.id)
	s.lib.cbMu.Unlock()
	s.stateMu.Lock()
	s.shadow.State = "closed"
	s.shadow.Established = false
	s.stateMu.Unlock()
	return s.conn.Close()
}

// Shadow returns the sanitised outside view of the connection state.
func (s *SSL) Shadow() ShadowSSL {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.shadow
}

// ID returns the connection identifier used by taps.
func (s *SSL) ID() uint64 { return s.id }

// PeerSubject returns the authenticated client subject, if any.
func (s *SSL) PeerSubject() string {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.shadow.PeerSubject
}

// SetExData attaches application data to the connection, like
// SSL_set_ex_data. With the ExDataOutside optimisation the value stays in
// the outside shadow object; otherwise every access crosses into the
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
