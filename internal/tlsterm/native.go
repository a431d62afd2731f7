package tlsterm

import (
	"crypto/ecdsa"
	"crypto/rand"
	"fmt"
	"net"
	"sync"
	"time"

	"libseal/internal/pki"
)

// ClientConfig configures the client side of a connection.
type ClientConfig struct {
	// Roots is the trusted CA pool.
	Roots *pki.Pool
	// ServerName, when set, must match the server certificate subject.
	ServerName string
	// VerifyPeer, when set, runs extra checks on the server certificate
	// (e.g. enclave quote verification via pki.Pool.VerifyEnclaveBinding).
	VerifyPeer func(*pki.Certificate) error
	// InsecureSkipVerify disables certificate verification, as the paper's
	// Dropbox/Squid deployment does (§6.4).
	InsecureSkipVerify bool
	// Cert and Key enable client authentication.
	Cert *pki.Certificate
	Key  *ecdsa.PrivateKey
}

// ServerConfig configures a server-side terminator.
type ServerConfig struct {
	// Cert is the server certificate presented to clients.
	Cert *pki.Certificate
	// Key is the certificate's private key.
	Key *ecdsa.PrivateKey
	// RequireClientCert demands and verifies client certificates against
	// ClientRoots, thwarting client-impersonation attacks (§6.3).
	RequireClientCert bool
	// ClientRoots verifies client certificates.
	ClientRoots *pki.Pool
}

// Conn is a secured stream. It implements net.Conn.
type Conn struct {
	raw      net.Conn
	fr       *frameReader
	rd       *sessionKeys
	wr       *sessionKeys
	leftover []byte       // decrypted, undelivered plaintext; aliases fr's buffer
	out      sealedFrames // frames being written, under writeMu
	peer     *pki.Certificate

	writeMu sync.Mutex
	readMu  sync.Mutex
	closed  bool
}

// PeerCertificate returns the authenticated peer certificate, or nil.
func (c *Conn) PeerCertificate() *pki.Certificate { return c.peer }

// Read returns decrypted application data.
func (c *Conn) Read(p []byte) (int, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	for len(c.leftover) == 0 {
		ftype, payload, err := c.fr.next()
		if err != nil {
			return 0, err
		}
		if c.leftover, err = c.rd.openFrame(ftype, payload); err != nil {
			return 0, err
		}
	}
	n := copy(p, c.leftover)
	c.leftover = c.leftover[n:]
	return n, nil
}

// Write encrypts and sends application data.
func (c *Conn) Write(p []byte) (int, error) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	_, err := c.out.sealData(c.wr, p)
	if err := c.out.flush(c.raw, err); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Close sends a close alert and closes the transport.
func (c *Conn) Close() error {
	c.writeMu.Lock()
	if !c.closed {
		c.closed = true
		_, _ = c.raw.Write(frameBytes(frameAlert, nil)) // best effort: the peer may be gone already
	}
	c.writeMu.Unlock()
	return c.raw.Close()
}

// LocalAddr returns the transport's local address.
func (c *Conn) LocalAddr() net.Addr { return c.raw.LocalAddr() }

// RemoteAddr returns the transport's remote address.
func (c *Conn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }

// SetDeadline forwards to the transport.
func (c *Conn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// SetReadDeadline forwards to the transport.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SetWriteDeadline forwards to the transport.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }

var _ net.Conn = (*Conn)(nil)

// Connect performs the client side of the handshake over conn.
func Connect(conn net.Conn, cfg *ClientConfig) (*Conn, error) {
	fr := newFrameReader(conn)
	tr := &transcript{}

	eph, err := generateEphemeral()
	if err != nil {
		return nil, err
	}
	ch := &clientHello{EphPub: eph.PublicKey().Bytes()}
	if err := fillRandom(ch.Random[:]); err != nil {
		return nil, err
	}
	chBytes := ch.marshal()
	tr.add(chBytes)
	if _, err := conn.Write(frameBytes(frameClientHello, chBytes)); err != nil {
		return nil, err
	}

	ftype, payload, err := fr.next()
	if err != nil {
		return nil, err
	}
	if ftype != frameServerHello {
		return nil, fmt.Errorf("%w: expected ServerHello, got frame %d", ErrHandshakeFailed, ftype)
	}
	sh, err := parseServerHello(payload)
	if err != nil {
		return nil, err
	}
	cert, err := pki.Unmarshal(sh.Cert)
	if err != nil {
		return nil, err
	}
	if err := verifyServerCert(cfg, cert); err != nil {
		return nil, err
	}
	if !verifyTranscript(cert.PubKey, serverHelloSigned(chBytes, sh), sh.SigR, sh.SigS) {
		return nil, fmt.Errorf("%w: server transcript signature invalid", ErrHandshakeFailed)
	}
	tr.add(payload)

	shared, err := ecdhShared(eph, sh.EphPub)
	if err != nil {
		return nil, err
	}
	keys, err := deriveKeys(shared, ch.Random[:], sh.Random[:])
	if err != nil {
		return nil, err
	}

	cf := &clientFinished{MAC: finishedMAC(keys.finKey, tr, "client finished")}
	if sh.WantCert {
		if cfg.Cert == nil || cfg.Key == nil {
			return nil, ErrCertRequired
		}
		cf.HasCert = true
		cf.Cert = cfg.Cert.Marshal()
		cf.SigR, cf.SigS, err = signTranscript(cfg.Key, tr)
		if err != nil {
			return nil, err
		}
	}
	cfBytes := cf.marshal()
	frame, err := keys.client.sealFrame(frameClientFinished, cfBytes)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(frame); err != nil {
		return nil, err
	}
	tr.add(cfBytes)

	ftype, payload, err = fr.next()
	if err != nil {
		return nil, err
	}
	if ftype != frameServerFinished {
		return nil, fmt.Errorf("%w: expected ServerFinished, got frame %d", ErrHandshakeFailed, ftype)
	}
	sfPlain, err := keys.server.open(frameServerFinished, payload)
	if err != nil {
		return nil, err
	}
	want := finishedMAC(keys.finKey, tr, "server finished")
	if !macEqual(sfPlain, want) {
		return nil, ErrFinishedMismatch
	}

	return &Conn{raw: conn, fr: fr, rd: keys.server, wr: keys.client, peer: cert}, nil
}

// AcceptNative performs the server side of the handshake in-process, without
// an enclave: read a frame, run the step, write its reply, twice. It is the
// "LibreSSL" baseline of the paper's evaluation.
func AcceptNative(conn net.Conn, cfg *ServerConfig) (*Conn, error) {
	fr := newFrameReader(conn)
	ftype, payload, err := fr.next()
	if err != nil {
		return nil, err
	}
	hs, reply, err := cfg.hello(fillRandom, ftype, payload)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(reply); err != nil {
		return nil, err
	}
	if ftype, payload, err = fr.next(); err != nil {
		return nil, err
	}
	peer, reply, err := cfg.finished(hs, ftype, payload)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(reply); err != nil {
		return nil, err
	}
	return &Conn{raw: conn, fr: fr, rd: hs.keys.client, wr: hs.keys.server, peer: peer}, nil
}

func macEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var diff byte
	for i := range a {
		diff |= a[i] ^ b[i]
	}
	return diff == 0
}

func fillRandom(b []byte) error {
	_, err := rand.Read(b)
	return err
}
