package tlsterm

import (
	"crypto/ecdsa"
	"fmt"
	"io"
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
	leftover []byte // decrypted, undelivered plaintext; aliases fr's buffer
	wbuf     []byte // the frame being written, reused under writeMu
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
		switch ftype {
		case frameAppData:
			pt, err := c.rd.open(frameAppData, payload)
			if err != nil {
				return 0, err
			}
			c.leftover = pt
		case frameAlert:
			// close_notify (we do not distinguish alert levels).
			return 0, io.EOF
		default:
			return 0, fmt.Errorf("tlsterm: unexpected frame type %d", ftype)
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
	total := 0
	for len(p) > 0 {
		chunk := p
		if len(chunk) > maxRecordPlaintext {
			chunk = chunk[:maxRecordPlaintext]
		}
		frame, err := c.wr.appendFrame(c.wbuf[:0], frameAppData, chunk)
		if err != nil {
			return total, err
		}
		c.wbuf = frame
		if _, err := c.raw.Write(frame); err != nil {
			return total, err
		}
		total += len(chunk)
		p = p[len(chunk):]
	}
	return total, nil
}

// Close sends a close alert and closes the transport.
func (c *Conn) Close() error {
	c.writeMu.Lock()
	if !c.closed {
		c.closed = true
		_ = writeFrame(c.raw, frameAlert, nil)
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
	if err := writeFrame(conn, frameClientHello, chBytes); err != nil {
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
	// The server signs the transcript up to (and excluding) its signature.
	sigTr := &transcript{}
	sigTr.add(chBytes)
	sigTr.add(sh.Random[:])
	sigTr.add(sh.EphPub)
	sigTr.add(sh.Cert)
	if !verifyTranscript(cert.PubKey, sigTr, sh.SigR, sh.SigS) {
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
	ct, err := keys.client.seal(frameClientFinished, cfBytes)
	if err != nil {
		return nil, err
	}
	if err := writeFrame(conn, frameClientFinished, ct); err != nil {
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
// an enclave. It is the "LibreSSL" baseline of the paper's evaluation.
func AcceptNative(conn net.Conn, cfg *ServerConfig) (*Conn, error) {
	fr := newFrameReader(conn)
	tr := &transcript{}

	ftype, payload, err := fr.next()
	if err != nil {
		return nil, err
	}
	if ftype != frameClientHello {
		return nil, fmt.Errorf("%w: expected ClientHello, got frame %d", ErrHandshakeFailed, ftype)
	}
	ch, err := parseClientHello(payload)
	if err != nil {
		return nil, err
	}
	tr.add(payload)

	eph, err := generateEphemeral()
	if err != nil {
		return nil, err
	}
	sh := &serverHello{EphPub: eph.PublicKey().Bytes(), Cert: cfg.Cert.Marshal(), WantCert: cfg.RequireClientCert}
	if err := fillRandom(sh.Random[:]); err != nil {
		return nil, err
	}
	sigTr := &transcript{}
	sigTr.add(payload)
	sigTr.add(sh.Random[:])
	sigTr.add(sh.EphPub)
	sigTr.add(sh.Cert)
	if sh.SigR, sh.SigS, err = signTranscript(cfg.Key, sigTr); err != nil {
		return nil, err
	}
	shBytes := sh.marshal()
	tr.add(shBytes)
	if err := writeFrame(conn, frameServerHello, shBytes); err != nil {
		return nil, err
	}

	shared, err := ecdhShared(eph, ch.EphPub)
	if err != nil {
		return nil, err
	}
	keys, err := deriveKeys(shared, ch.Random[:], sh.Random[:])
	if err != nil {
		return nil, err
	}

	ftype, payload, err = fr.next()
	if err != nil {
		return nil, err
	}
	if ftype != frameClientFinished {
		return nil, fmt.Errorf("%w: expected ClientFinished, got frame %d", ErrHandshakeFailed, ftype)
	}
	cfPlain, err := keys.client.open(frameClientFinished, payload)
	if err != nil {
		return nil, err
	}
	cf, err := parseClientFinished(cfPlain)
	if err != nil {
		return nil, err
	}
	if !macEqual(cf.MAC, finishedMAC(keys.finKey, tr, "client finished")) {
		return nil, ErrFinishedMismatch
	}
	var peer *pki.Certificate
	if cfg.RequireClientCert {
		if !cf.HasCert {
			return nil, ErrCertRequired
		}
		peer, err = pki.Unmarshal(cf.Cert)
		if err != nil {
			return nil, err
		}
		if cfg.ClientRoots == nil {
			return nil, fmt.Errorf("%w: no client roots configured", ErrCertUntrusted)
		}
		if err := cfg.ClientRoots.Verify(peer); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCertUntrusted, err)
		}
		if !verifyTranscript(peer.PubKey, tr, cf.SigR, cf.SigS) {
			return nil, fmt.Errorf("%w: client transcript signature invalid", ErrHandshakeFailed)
		}
	}
	tr.add(cfPlain)

	sf := finishedMAC(keys.finKey, tr, "server finished")
	ct, err := keys.server.seal(frameServerFinished, sf)
	if err != nil {
		return nil, err
	}
	if err := writeFrame(conn, frameServerFinished, ct); err != nil {
		return nil, err
	}

	return &Conn{raw: conn, fr: fr, rd: keys.client, wr: keys.server, peer: peer}, nil
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
	_, err := cryptoRandRead(b)
	return err
}
