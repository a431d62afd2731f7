package tlsterm

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"libseal/internal/pki"
)

// The handshake implements a TLS-1.3-style flow over the frame layer:
//
//	C -> S  ClientHello:    clientRandom || ephemeral ECDHE public key
//	S -> C  ServerHello:    serverRandom || ephemeral key || certificate
//	                        || ECDSA signature over the transcript
//	C -> S  ClientFinished: (encrypted) HMAC over the transcript, plus an
//	                        optional client certificate and transcript
//	                        signature for mutual authentication
//	S -> C  ServerFinished: (encrypted) HMAC over the transcript
//
// Both sides derive AES-128-GCM record keys from the ECDHE shared secret
// via HKDF-SHA256 keyed with both randoms.

// Handshake-level errors.
var (
	ErrHandshakeFailed  = errors.New("tlsterm: handshake failed")
	ErrCertRequired     = errors.New("tlsterm: peer certificate required")
	ErrCertUntrusted    = errors.New("tlsterm: peer certificate untrusted")
	ErrFinishedMismatch = errors.New("tlsterm: finished MAC mismatch")
)

type keySchedule struct {
	client *sessionKeys
	server *sessionKeys
	finKey []byte
}

// deriveKeys computes both directions' record keys.
func deriveKeys(shared, clientRandom, serverRandom []byte) (*keySchedule, error) {
	salt := append(append([]byte{}, clientRandom...), serverRandom...)
	prk := hkdfExtract(salt, shared)
	ck, err := newSessionKeys(hkdfExpand(prk, "libseal client key", 16), hkdfExpand(prk, "libseal client iv", 12))
	if err != nil {
		return nil, err
	}
	sk, err := newSessionKeys(hkdfExpand(prk, "libseal server key", 16), hkdfExpand(prk, "libseal server iv", 12))
	if err != nil {
		return nil, err
	}
	return &keySchedule{client: ck, server: sk, finKey: hkdfExpand(prk, "libseal finished", 32)}, nil
}

func finishedMAC(finKey []byte, transcript *transcript, label string) []byte {
	h := transcript.sum()
	mac := sha256.New()
	mac.Write(finKey)
	mac.Write([]byte(label))
	mac.Write(h[:])
	return mac.Sum(nil)
}

// transcript accumulates the handshake messages.
type transcript struct{ buf bytes.Buffer }

func (t *transcript) add(b []byte) { t.buf.Write(b) }
func (t *transcript) sum() [32]byte {
	return sha256.Sum256(t.buf.Bytes())
}

// clientHello encoding.
type clientHello struct {
	Random [32]byte
	EphPub []byte // uncompressed P-256 point
}

func (m *clientHello) marshal() []byte {
	var buf bytes.Buffer
	buf.Write(m.Random[:])
	writeLV(&buf, m.EphPub)
	return buf.Bytes()
}

func parseClientHello(b []byte) (*clientHello, error) {
	r := bytes.NewReader(b)
	m := &clientHello{}
	if _, err := r.Read(m.Random[:]); err != nil {
		return nil, ErrHandshakeFailed
	}
	var err error
	if m.EphPub, err = readLV(r); err != nil {
		return nil, err
	}
	return m, nil
}

// serverHello encoding.
type serverHello struct {
	Random   [32]byte
	EphPub   []byte
	Cert     []byte // marshalled pki.Certificate
	SigR     []byte // over SHA-256(clientHello || random || ephPub || cert)
	SigS     []byte
	WantCert bool // server requests client authentication
}

func (m *serverHello) marshal() []byte {
	var buf bytes.Buffer
	buf.Write(m.Random[:])
	writeLV(&buf, m.EphPub)
	writeLV(&buf, m.Cert)
	writeLV(&buf, m.SigR)
	writeLV(&buf, m.SigS)
	if m.WantCert {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	return buf.Bytes()
}

func parseServerHello(b []byte) (*serverHello, error) {
	r := bytes.NewReader(b)
	m := &serverHello{}
	if _, err := r.Read(m.Random[:]); err != nil {
		return nil, ErrHandshakeFailed
	}
	var err error
	if m.EphPub, err = readLV(r); err != nil {
		return nil, err
	}
	if m.Cert, err = readLV(r); err != nil {
		return nil, err
	}
	if m.SigR, err = readLV(r); err != nil {
		return nil, err
	}
	if m.SigS, err = readLV(r); err != nil {
		return nil, err
	}
	flag, err := r.ReadByte()
	if err != nil {
		return nil, ErrHandshakeFailed
	}
	m.WantCert = flag == 1
	return m, nil
}

// clientFinished encoding (sent encrypted).
type clientFinished struct {
	MAC     []byte
	Cert    []byte // optional client certificate
	SigR    []byte // client transcript signature
	SigS    []byte
	HasCert bool
}

func (m *clientFinished) marshal() []byte {
	var buf bytes.Buffer
	writeLV(&buf, m.MAC)
	if m.HasCert {
		buf.WriteByte(1)
		writeLV(&buf, m.Cert)
		writeLV(&buf, m.SigR)
		writeLV(&buf, m.SigS)
	} else {
		buf.WriteByte(0)
	}
	return buf.Bytes()
}

func parseClientFinished(b []byte) (*clientFinished, error) {
	r := bytes.NewReader(b)
	m := &clientFinished{}
	var err error
	if m.MAC, err = readLV(r); err != nil {
		return nil, err
	}
	flag, err := r.ReadByte()
	if err != nil {
		return nil, ErrHandshakeFailed
	}
	if flag == 1 {
		m.HasCert = true
		if m.Cert, err = readLV(r); err != nil {
			return nil, err
		}
		if m.SigR, err = readLV(r); err != nil {
			return nil, err
		}
		if m.SigS, err = readLV(r); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func writeLV(buf *bytes.Buffer, b []byte) {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(b)))
	buf.Write(l[:])
	buf.Write(b)
}

func readLV(r *bytes.Reader) ([]byte, error) {
	var l [4]byte
	if _, err := r.Read(l[:]); err != nil {
		return nil, ErrHandshakeFailed
	}
	n := binary.BigEndian.Uint32(l[:])
	if int(n) > r.Len() {
		return nil, ErrHandshakeFailed
	}
	out := make([]byte, n)
	if n > 0 {
		if _, err := r.Read(out); err != nil {
			return nil, ErrHandshakeFailed
		}
	}
	return out, nil
}

// signTranscript signs the handshake transcript hash with an ECDSA key.
func signTranscript(key *ecdsa.PrivateKey, t *transcript) (rb, sb []byte, err error) {
	h := t.sum()
	r, s, err := ecdsa.Sign(rand.Reader, key, h[:])
	if err != nil {
		return nil, nil, fmt.Errorf("tlsterm: transcript signature: %w", err)
	}
	return r.Bytes(), s.Bytes(), nil
}

func verifyTranscript(pub *ecdsa.PublicKey, t *transcript, rb, sb []byte) bool {
	h := t.sum()
	return ecdsa.Verify(pub, h[:], new(big.Int).SetBytes(rb), new(big.Int).SetBytes(sb))
}

// generateEphemeral creates a P-256 ECDHE key pair from the given entropy
// source (inside the enclave this is the in-enclave RNG).
func generateEphemeral() (*ecdh.PrivateKey, error) {
	return ecdh.P256().GenerateKey(rand.Reader)
}

// ecdhShared computes the shared secret from our private key and the peer's
// encoded public point.
func ecdhShared(priv *ecdh.PrivateKey, peerPub []byte) ([]byte, error) {
	pub, err := ecdh.P256().NewPublicKey(peerPub)
	if err != nil {
		return nil, fmt.Errorf("%w: bad ephemeral key", ErrHandshakeFailed)
	}
	return priv.ECDH(pub)
}

// verifyServerCert runs the client-side certificate checks.
func verifyServerCert(cfg *ClientConfig, cert *pki.Certificate) error {
	if cfg.InsecureSkipVerify {
		return nil
	}
	if cfg.Roots == nil {
		return fmt.Errorf("%w: no roots configured", ErrCertUntrusted)
	}
	if err := cfg.Roots.Verify(cert); err != nil {
		return fmt.Errorf("%w: %v", ErrCertUntrusted, err)
	}
	if cfg.ServerName != "" && cert.Subject != cfg.ServerName {
		return fmt.Errorf("%w: certificate for %q, want %q", ErrCertUntrusted, cert.Subject, cfg.ServerName)
	}
	if cfg.VerifyPeer != nil {
		return cfg.VerifyPeer(cert)
	}
	return nil
}

// The server side of the handshake is the two steps below, and they are the
// only server side there is: AcceptNative runs them back to back on frames it
// reads itself, SSL.Accept runs each in its own ecall with the half-open
// state parked inside between them. A terminator chooses where cfg — the
// private key with it — lives and where the server random comes from.

// halfOpen is a server handshake between its two steps: the transcript so far
// and the keys derived from it. The ephemeral private key is already gone.
type halfOpen struct {
	tr   transcript
	keys *keySchedule
}

// serverHelloSigned is what the server signs and Connect verifies: the
// transcript up to (and excluding) the ServerHello's signature.
func serverHelloSigned(clientHello []byte, sh *serverHello) *transcript {
	sigTr := &transcript{}
	sigTr.add(clientHello)
	sigTr.add(sh.Random[:])
	sigTr.add(sh.EphPub)
	sigTr.add(sh.Cert)
	return sigTr
}

// hello is the first step: ClientHello in, half-open state and the signed
// ServerHello frame out.
func (cfg *ServerConfig) hello(random func([]byte) error, ftype byte, payload []byte) (*halfOpen, []byte, error) {
	if ftype != frameClientHello {
		return nil, nil, fmt.Errorf("%w: expected ClientHello, got frame %d", ErrHandshakeFailed, ftype)
	}
	ch, err := parseClientHello(payload)
	if err != nil {
		return nil, nil, err
	}
	eph, err := generateEphemeral()
	if err != nil {
		return nil, nil, err
	}
	sh := &serverHello{EphPub: eph.PublicKey().Bytes(), Cert: cfg.Cert.Marshal(), WantCert: cfg.RequireClientCert}
	if err := random(sh.Random[:]); err != nil {
		return nil, nil, err
	}
	if sh.SigR, sh.SigS, err = signTranscript(cfg.Key, serverHelloSigned(payload, sh)); err != nil {
		return nil, nil, err
	}
	shared, err := ecdhShared(eph, ch.EphPub)
	if err != nil {
		return nil, nil, err
	}
	hs := &halfOpen{}
	if hs.keys, err = deriveKeys(shared, ch.Random[:], sh.Random[:]); err != nil {
		return nil, nil, err
	}
	shBytes := sh.marshal()
	hs.tr.add(payload)
	hs.tr.add(shBytes)
	return hs, frameBytes(frameServerHello, shBytes), nil
}

// finished is the second step: ClientFinished in, the authenticated client
// certificate (nil unless cfg requires one) and the ServerFinished frame out.
// From here on hs.keys are the session's record keys, client's to read and
// server's to write. A step that fails has spent hs: it cannot be retried.
func (cfg *ServerConfig) finished(hs *halfOpen, ftype byte, payload []byte) (*pki.Certificate, []byte, error) {
	if ftype != frameClientFinished {
		return nil, nil, fmt.Errorf("%w: expected ClientFinished, got frame %d", ErrHandshakeFailed, ftype)
	}
	cfPlain, err := hs.keys.client.open(frameClientFinished, payload)
	if err != nil {
		return nil, nil, err
	}
	cf, err := parseClientFinished(cfPlain)
	if err != nil {
		return nil, nil, err
	}
	if !macEqual(cf.MAC, finishedMAC(hs.keys.finKey, &hs.tr, "client finished")) {
		return nil, nil, ErrFinishedMismatch
	}
	var peer *pki.Certificate
	if cfg.RequireClientCert {
		if !cf.HasCert {
			return nil, nil, ErrCertRequired
		}
		if peer, err = pki.Unmarshal(cf.Cert); err != nil {
			return nil, nil, err
		}
		if cfg.ClientRoots == nil {
			return nil, nil, fmt.Errorf("%w: no client roots configured", ErrCertUntrusted)
		}
		if err := cfg.ClientRoots.Verify(peer); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrCertUntrusted, err)
		}
		if !verifyTranscript(peer.PubKey, &hs.tr, cf.SigR, cf.SigS) {
			return nil, nil, fmt.Errorf("%w: client transcript signature invalid", ErrHandshakeFailed)
		}
	}
	hs.tr.add(cfPlain)
	reply, err := hs.keys.server.sealFrame(frameServerFinished, finishedMAC(hs.keys.finKey, &hs.tr, "server finished"))
	return peer, reply, err
}
