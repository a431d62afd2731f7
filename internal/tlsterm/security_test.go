package tlsterm

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"io"
	mrand "math/rand"
	"net"
	"testing"

	"libseal/internal/asyncall"
	"libseal/internal/netsim"
	"libseal/internal/pki"
)

// The security suite runs against every server-side terminator through the
// Terminator interface: the handshake and the record path are one copy, and
// this is the table that keeps it so.

// eachTerminator runs fn once per terminator — native, and the enclave
// library over the sync and over the async bridge. mk builds the terminator
// under test from a server configuration; certificate and key are env's.
func eachTerminator(t *testing.T, fn func(t *testing.T, env *testEnv, mk func(ServerConfig) Terminator)) {
	for _, tc := range []struct {
		name    string
		mode    asyncall.Mode
		library bool
	}{
		{"native", asyncall.ModeSync, false},
		{"library-sync", asyncall.ModeSync, true},
		{"library-async", asyncall.ModeAsync, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newTestEnv(t, tc.mode)
			fn(t, env, func(cfg ServerConfig) Terminator {
				cfg.Cert, cfg.Key = env.cert, env.key
				if !tc.library {
					return NewNativeTerminator(&cfg)
				}
				lib, err := NewLibrary(env.bridge, LibraryConfig{
					Cert: cfg.Cert, Key: cfg.Key, Opts: AllOptimizations(),
					RequireClientCert: cfg.RequireClientCert, ClientRoots: cfg.ClientRoots,
				})
				if err != nil {
					t.Fatal(err)
				}
				return lib.Terminator()
			})
		})
	}
}

// noSessionsLeft fails the test if an enclave library still holds a session,
// half-open or established, once every connection it served is gone.
func noSessionsLeft(t *testing.T, term Terminator) {
	t.Helper()
	if lt, ok := term.(*libraryTerminator); ok {
		if n := sessionsInside(lt.lib); n != 0 {
			t.Fatalf("%d sessions left inside the enclave", n)
		}
	}
}

// peerSubject is the client identity the terminator authenticated.
func peerSubject(s Stream) string {
	switch s := s.(type) {
	case *Conn:
		if c := s.PeerCertificate(); c != nil {
			return c.Subject
		}
	case *SSL:
		return s.PeerSubject()
	}
	return ""
}

// serveOne accepts one connection on a fresh pipe and hands the stream to
// handle; the returned channel carries the accept error or handle's. The
// stream and the server end of the pipe are closed by then.
func serveOne(term Terminator, handle func(Stream) error) (*netsim.Conn, chan error) {
	cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
	done := make(chan error, 1)
	go func() {
		sc, err := term.Accept(sConn)
		if err == nil {
			err = handle(sc)
			sc.Close()
		}
		// Closing the transport on failure unblocks a client that waits for
		// a reply that will never come.
		sConn.Close()
		done <- err
	}()
	return cConn, done
}

// readOnce is a handler that reports what one Read returns.
func readOnce(sc Stream) error {
	_, err := sc.Read(make([]byte, 64))
	return err
}

// tamperConn wraps a net.Conn and flips one byte at a chosen offset of the
// outgoing stream, modelling an in-path attacker.
type tamperConn struct {
	net.Conn
	offset  int
	written int
}

func (c *tamperConn) Write(p []byte) (int, error) {
	if c.offset >= c.written && c.offset < c.written+len(p) {
		mut := append([]byte(nil), p...)
		mut[c.offset-c.written] ^= 0xA5
		c.written += len(p)
		return c.Conn.Write(mut)
	}
	c.written += len(p)
	return c.Conn.Write(p)
}

// TestHandshakeTamperingAlwaysFails flips single bytes at many positions of
// the client's outgoing handshake stream; every mutation must make the
// handshake fail on at least one side — never succeed with altered state —
// and a refused handshake leaves nothing behind inside the enclave.
func TestHandshakeTamperingAlwaysFails(t *testing.T) {
	eachTerminator(t, func(t *testing.T, env *testEnv, mk func(ServerConfig) Terminator) {
		term := mk(ServerConfig{})
		echo4 := func(sc Stream) error {
			// If the handshake "succeeded", try to exchange data — the
			// finished MACs must have caught any tampering before this.
			buf := make([]byte, 4)
			if _, err := io.ReadFull(sc, buf); err != nil {
				return err
			}
			_, err := sc.Write(buf)
			return err
		}
		// Measure an unmodified handshake's client-side byte count first.
		probeC, probeDone := serveOne(term, func(Stream) error { return nil })
		probe := &tamperConn{Conn: probeC, offset: 1 << 30}
		conn, err := Connect(probe, clientCfg(env))
		if err != nil {
			t.Fatal(err)
		}
		total := probe.written
		conn.Close()
		<-probeDone

		r := mrand.New(mrand.NewSource(1))
		for trial := 0; trial < 25; trial++ {
			offset := r.Intn(total)
			cConn, serverErr := serveOne(term, echo4)
			client, err := Connect(&tamperConn{Conn: cConn, offset: offset}, clientCfg(env))
			if err != nil {
				cConn.Close()
				<-serverErr
				continue
			}
			// The client-side handshake passed (the mutation hit
			// client-to-server data the client cannot check); the server
			// must have rejected it instead.
			client.Write([]byte("ping"))
			_, rerr := io.ReadFull(client, make([]byte, 4))
			if serr := <-serverErr; rerr == nil && serr == nil {
				t.Fatalf("offset %d: tampered handshake succeeded end-to-end", offset)
			}
			client.Close()
		}
		noSessionsLeft(t, term)
	})
}

// TestRecordStreamTamperDetected flips bytes in application records; the
// receiver must reject them (AEAD) rather than deliver corrupted plaintext.
func TestRecordStreamTamperDetected(t *testing.T) {
	eachTerminator(t, func(t *testing.T, env *testEnv, mk func(ServerConfig) Terminator) {
		term := mk(ServerConfig{})
		for _, offset := range []int{0, 3, 4, 10, 20} {
			cConn, received := serveOne(term, readOnce)
			client, err := Connect(cConn, clientCfg(env))
			if err != nil {
				t.Fatal(err)
			}
			// Tamper with the first application record after the handshake.
			frame, err := client.wr.sealFrame(frameAppData, []byte("sensitive request"))
			if err != nil {
				t.Fatal(err)
			}
			frame[frameHeaderLen+offset%len(frame[frameHeaderLen:])] ^= 0xFF
			if _, err := cConn.Write(frame); err != nil {
				t.Fatal(err)
			}
			if err := <-received; !errors.Is(err, ErrBadRecord) {
				t.Fatalf("offset %d: server accepted tampered record: %v", offset, err)
			}
			client.Close()
		}
		noSessionsLeft(t, term)
	})
}

// TestRecordReorderingRejected swaps two records in flight; sequence-bound
// nonces must reject them.
func TestRecordReorderingRejected(t *testing.T) {
	eachTerminator(t, func(t *testing.T, env *testEnv, mk func(ServerConfig) Terminator) {
		cConn, result := serveOne(mk(ServerConfig{}), readOnce)
		client, err := Connect(cConn, clientCfg(env))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		f1, _ := client.wr.sealFrame(frameAppData, []byte("first"))
		f2, _ := client.wr.sealFrame(frameAppData, []byte("second"))
		// Deliver the second record first.
		cConn.Write(f2)
		cConn.Write(f1)
		if err := <-result; !errors.Is(err, ErrBadRecord) {
			t.Fatalf("reordered records accepted: %v", err)
		}
	})
}

// TestSessionKeysAreConnectionSpecific replays a record captured on one
// connection into another connection to the same terminator: every handshake
// has fresh ECDHE keys, so the record must not open there.
func TestSessionKeysAreConnectionSpecific(t *testing.T) {
	eachTerminator(t, func(t *testing.T, env *testEnv, mk func(ServerConfig) Terminator) {
		term := mk(ServerConfig{})
		raw1, done1 := serveOne(term, readOnce)
		c1, err := Connect(raw1, clientCfg(env))
		if err != nil {
			t.Fatal(err)
		}
		raw2, done2 := serveOne(term, readOnce)
		c2, err := Connect(raw2, clientCfg(env))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(c1.wr.iv[:], c2.wr.iv[:]) {
			t.Fatal("two connections derived identical IVs")
		}
		// Connection 1's first record, put on connection 2's wire as its first.
		frame, _ := c1.wr.sealFrame(frameAppData, []byte("cross-session replay"))
		if _, err := raw2.Write(frame); err != nil {
			t.Fatal(err)
		}
		if err := <-done2; !errors.Is(err, ErrBadRecord) {
			t.Fatalf("record sealed for connection 1 read on connection 2: %v", err)
		}
		c2.Close()
		c1.Close()
		if err := <-done1; !errors.Is(err, io.EOF) {
			t.Fatalf("connection 1 after a clean close: %v", err)
		}
		noSessionsLeft(t, term)
	})
}

// TestClientAuthentication covers the RequireClientCert branch of the
// finished step: a client certificate under a trusted root whose key signed
// the transcript is accepted and its subject reported; a certificate from an
// unknown root, and a trusted certificate presented by someone who does not
// hold its key, are refused.
func TestClientAuthentication(t *testing.T) {
	eachTerminator(t, func(t *testing.T, env *testEnv, mk func(ServerConfig) Terminator) {
		term := mk(ServerConfig{RequireClientCert: true, ClientRoots: env.pool})
		aliceKey, _ := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
		aliceCert, _ := env.ca.Issue("alice", &aliceKey.PublicKey, nil)
		otherCA, _ := pki.NewCA("other")
		strayCert, _ := otherCA.Issue("alice", &aliceKey.PublicKey, nil)
		malloryKey, _ := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)

		for _, tc := range []struct {
			name    string
			cert    *pki.Certificate
			key     *ecdsa.PrivateKey
			wantErr error // nil: the server authenticates alice
		}{
			{"trusted", aliceCert, aliceKey, nil},
			{"untrusted root", strayCert, aliceKey, ErrCertUntrusted},
			{"bad transcript signature", aliceCert, malloryKey, ErrHandshakeFailed},
		} {
			subject := ""
			cConn, done := serveOne(term, func(sc Stream) error {
				subject = peerSubject(sc)
				return nil
			})
			cfg := clientCfg(env)
			cfg.Cert, cfg.Key = tc.cert, tc.key
			client, cerr := Connect(cConn, cfg)
			serr := <-done
			switch {
			case tc.wantErr == nil && (cerr != nil || serr != nil || subject != "alice"):
				t.Fatalf("%s: client %v, server %v, peer %q; want alice authenticated", tc.name, cerr, serr, subject)
			case tc.wantErr != nil && (cerr == nil || !errors.Is(serr, tc.wantErr)):
				t.Fatalf("%s: client %v, server %v; want both refused, the server with %v", tc.name, cerr, serr, tc.wantErr)
			}
			if client != nil {
				client.Close()
			}
			cConn.Close()
		}
		noSessionsLeft(t, term)
	})
}

// TestClientAuthMissingCertRejected: a client without a certificate gives up
// when the server asks for one, and one that carries on regardless — sending
// a correct ClientFinished with no certificate in it — is refused by the
// server.
func TestClientAuthMissingCertRejected(t *testing.T) {
	eachTerminator(t, func(t *testing.T, env *testEnv, mk func(ServerConfig) Terminator) {
		term := mk(ServerConfig{RequireClientCert: true, ClientRoots: env.pool})
		cConn, done := serveOne(term, func(Stream) error { return nil })
		if _, err := Connect(cConn, clientCfg(env)); !errors.Is(err, ErrCertRequired) {
			t.Fatalf("err = %v, want ErrCertRequired", err)
		}
		cConn.Close()
		if err := <-done; err == nil {
			t.Fatal("server completed a handshake the client abandoned")
		}

		cConn, done = serveOne(term, func(Stream) error { return nil })
		rogue := newScriptClient(t)
		fr := newFrameReader(cConn)
		cConn.Write(rogue.hello)
		_, serverHello, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		cConn.Write(rogue.finished(t, serverHello))
		if err := <-done; !errors.Is(err, ErrCertRequired) {
			t.Fatalf("server err = %v, want ErrCertRequired", err)
		}
		cConn.Close()
		noSessionsLeft(t, term)
	})
}
