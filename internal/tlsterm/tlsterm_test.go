package tlsterm

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"

	"libseal/internal/asyncall"
	"libseal/internal/enclave"
	"libseal/internal/netsim"
	"libseal/internal/pki"
)

type testEnv struct {
	ca     *pki.CA
	pool   *pki.Pool
	cert   *pki.Certificate
	key    *ecdsa.PrivateKey
	bridge *asyncall.Bridge
	encl   *enclave.Enclave
}

func newTestEnv(t *testing.T, mode asyncall.Mode) *testEnv {
	t.Helper()
	ca, err := pki.NewCA("test-ca")
	if err != nil {
		t.Fatal(err)
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Issue("server.test", &key.PublicKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	platform := enclave.NewPlatform()
	encl, err := platform.Launch(enclave.Config{
		Code:       []byte("libseal-tls"),
		MaxThreads: 8,
		Cost:       enclave.ZeroCostModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	bridge, err := asyncall.New(encl, asyncall.Config{Mode: mode, AppSlots: 8, Schedulers: 2, TasksPerScheduler: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bridge.Close)
	return &testEnv{ca: ca, pool: pki.NewPool(ca), cert: cert, key: key, bridge: bridge, encl: encl}
}

func clientCfg(env *testEnv) *ClientConfig {
	return &ClientConfig{Roots: env.pool, ServerName: "server.test"}
}

// startNative runs a native (baseline) server echo handler on one end of a
// pipe and returns the client end plus a done channel.
func echoNative(t *testing.T, env *testEnv, serverConn net.Conn) chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		sc, err := AcceptNative(serverConn, &ServerConfig{Cert: env.cert, Key: env.key})
		if err != nil {
			done <- err
			return
		}
		defer sc.Close()
		_, err = io.Copy(sc, sc)
		done <- err
	}()
	return done
}

func TestNativeHandshakeAndEcho(t *testing.T) {
	env := newTestEnv(t, asyncall.ModeSync)
	cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
	done := echoNative(t, env, sConn)
	client, err := Connect(cConn, clientCfg(env))
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("secure payload "), 100)
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatal("echo mismatch")
	}
	client.Close()
	if err := <-done; err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("server: %v", err)
	}
}

func TestNativeLargeTransfer(t *testing.T) {
	env := newTestEnv(t, asyncall.ModeSync)
	cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
	echoNative(t, env, sConn)
	client, err := Connect(cConn, clientCfg(env))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	msg := make([]byte, 300_000) // spans many records
	rand.Read(msg)
	go client.Write(msg)
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatal("large echo mismatch")
	}
}

func TestClientRejectsUntrustedCert(t *testing.T) {
	env := newTestEnv(t, asyncall.ModeSync)
	otherCA, _ := pki.NewCA("other")
	cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
	go AcceptNative(sConn, &ServerConfig{Cert: env.cert, Key: env.key})
	_, err := Connect(cConn, &ClientConfig{Roots: pki.NewPool(otherCA), ServerName: "server.test"})
	if !errors.Is(err, ErrCertUntrusted) {
		t.Fatalf("err = %v, want ErrCertUntrusted", err)
	}
}

func TestClientRejectsWrongServerName(t *testing.T) {
	env := newTestEnv(t, asyncall.ModeSync)
	cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
	go AcceptNative(sConn, &ServerConfig{Cert: env.cert, Key: env.key})
	_, err := Connect(cConn, &ClientConfig{Roots: env.pool, ServerName: "evil.test"})
	if !errors.Is(err, ErrCertUntrusted) {
		t.Fatalf("err = %v, want ErrCertUntrusted", err)
	}
}

func TestInsecureSkipVerify(t *testing.T) {
	env := newTestEnv(t, asyncall.ModeSync)
	cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
	echoNative(t, env, sConn)
	// The Dropbox/Squid deployment: certificate verification disabled.
	client, err := Connect(cConn, &ClientConfig{InsecureSkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
}

// startLibrary spins up an enclave-backed library server handling one
// connection with an echo loop.
func echoLibrary(t *testing.T, lib *Library, serverConn net.Conn) (*SSL, chan error) {
	t.Helper()
	ssl := lib.NewSSL(serverConn)
	done := make(chan error, 1)
	go func() {
		if err := ssl.Accept(); err != nil {
			done <- err
			return
		}
		buf := make([]byte, 32*1024)
		for {
			n, err := ssl.Read(buf)
			if err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				ssl.Close()
				done <- err
				return
			}
			if _, err := ssl.Write(buf[:n]); err != nil {
				done <- err
				return
			}
		}
	}()
	return ssl, done
}

func testLibraryEcho(t *testing.T, mode asyncall.Mode) {
	env := newTestEnv(t, mode)
	lib, err := NewLibrary(env.bridge, LibraryConfig{
		Cert: env.cert, Key: env.key, Opts: AllOptimizations(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
	_, done := echoLibrary(t, lib, sConn)
	client, err := Connect(cConn, clientCfg(env))
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("through the enclave "), 50)
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatal("echo mismatch")
	}
	client.Close()
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
}

func TestLibraryEchoSync(t *testing.T)  { testLibraryEcho(t, asyncall.ModeSync) }
func TestLibraryEchoAsync(t *testing.T) { testLibraryEcho(t, asyncall.ModeAsync) }

// recordingTap captures everything crossing the termination point.
type recordingTap struct {
	mu     sync.Mutex
	reads  map[uint64][]byte
	writes map[uint64][]byte
	closed []uint64
}

func newRecordingTap() *recordingTap {
	return &recordingTap{reads: map[uint64][]byte{}, writes: map[uint64][]byte{}}
}

func (tp *recordingTap) OnData(env *asyncall.Env, id uint64, dir Direction, data []byte) ([]byte, error) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if dir == DirRead {
		tp.reads[id] = append(tp.reads[id], data...)
	} else {
		tp.writes[id] = append(tp.writes[id], data...)
	}
	return nil, nil
}

func (tp *recordingTap) OnClose(env *asyncall.Env, id uint64) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	tp.closed = append(tp.closed, id)
}

func TestTapObservesAllPlaintext(t *testing.T) {
	env := newTestEnv(t, asyncall.ModeSync)
	tap := newRecordingTap()
	lib, err := NewLibrary(env.bridge, LibraryConfig{
		Cert: env.cert, Key: env.key, Opts: AllOptimizations(), Tap: tap,
	})
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
	ssl, done := echoLibrary(t, lib, sConn)
	client, err := Connect(cConn, clientCfg(env))
	if err != nil {
		t.Fatal(err)
	}
	request := []byte("GET /secret HTTP/1.1\r\n\r\n")
	client.Write(request)
	buf := make([]byte, len(request))
	io.ReadFull(client, buf)
	client.Close()
	<-done

	tap.mu.Lock()
	defer tap.mu.Unlock()
	if !bytes.Equal(tap.reads[ssl.ID()], request) {
		t.Fatalf("tap reads = %q, want %q", tap.reads[ssl.ID()], request)
	}
	if !bytes.Equal(tap.writes[ssl.ID()], request) {
		t.Fatalf("tap writes = %q", tap.writes[ssl.ID()])
	}
	if len(tap.closed) != 1 || tap.closed[0] != ssl.ID() {
		t.Fatalf("tap closed = %v", tap.closed)
	}
}

func TestTapErrorAbortsIO(t *testing.T) {
	env := newTestEnv(t, asyncall.ModeSync)
	tapErr := errors.New("audit log full")
	lib, err := NewLibrary(env.bridge, LibraryConfig{
		Cert: env.cert, Key: env.key, Opts: AllOptimizations(),
		Tap: failTap{err: tapErr},
	})
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
	ssl := lib.NewSSL(sConn)
	acceptDone := make(chan error, 1)
	readErr := make(chan error, 1)
	go func() {
		err := ssl.Accept()
		acceptDone <- err
		if err != nil {
			return
		}
		buf := make([]byte, 128)
		_, err = ssl.Read(buf)
		readErr <- err
	}()
	client, err := Connect(cConn, clientCfg(env))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := <-acceptDone; err != nil {
		t.Fatal(err)
	}
	client.Write([]byte("data"))
	if err := <-readErr; !errors.Is(err, tapErr) {
		t.Fatalf("Read err = %v, want tap error", err)
	}
}

type failTap struct{ err error }

func (f failTap) OnData(*asyncall.Env, uint64, Direction, []byte) ([]byte, error) {
	return nil, f.err
}
func (f failTap) OnClose(*asyncall.Env, uint64) {}

func TestExDataOutsideAvoidsEcalls(t *testing.T) {
	env := newTestEnv(t, asyncall.ModeSync)
	lib, err := NewLibrary(env.bridge, LibraryConfig{Cert: env.cert, Key: env.key, Opts: AllOptimizations()})
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
	ssl, _ := echoLibrary(t, lib, sConn)
	client, err := Connect(cConn, clientCfg(env))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	before := env.encl.Stats().Ecalls
	if err := ssl.SetExData("request", "GET /"); err != nil {
		t.Fatal(err)
	}
	v, err := ssl.GetExData("request")
	if err != nil || v != "GET /" {
		t.Fatalf("GetExData = %v, %v", v, err)
	}
	if got := env.encl.Stats().Ecalls; got != before {
		t.Fatalf("ex_data access performed %d ecalls, want 0", got-before)
	}
}

func TestExDataInsideCostsEcalls(t *testing.T) {
	env := newTestEnv(t, asyncall.ModeSync)
	opts := AllOptimizations()
	opts.ExDataOutside = false
	lib, err := NewLibrary(env.bridge, LibraryConfig{Cert: env.cert, Key: env.key, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
	ssl, _ := echoLibrary(t, lib, sConn)
	client, err := Connect(cConn, clientCfg(env))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// The first echoed byte says the session exists, and the echo loop is
	// back waiting on the network, outside the enclave.
	if _, err := client.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(client, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	before := env.encl.Stats().Ecalls
	if err := ssl.SetExData("k", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ssl.GetExData("k"); err != nil {
		t.Fatal(err)
	}
	if got := env.encl.Stats().Ecalls - before; got != 2 {
		t.Fatalf("ex_data access performed %d ecalls, want 2", got)
	}
}

func TestOptimizationsReduceOcalls(t *testing.T) {
	runOnce := func(opts Optimizations) enclave.StatsSnapshot {
		env := newTestEnv(t, asyncall.ModeSync)
		lib, err := NewLibrary(env.bridge, LibraryConfig{Cert: env.cert, Key: env.key, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
		_, done := echoLibrary(t, lib, sConn)
		client, err := Connect(cConn, clientCfg(env))
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, 40_000)
		client.Write(msg)
		buf := make([]byte, len(msg))
		io.ReadFull(client, buf)
		client.Close()
		<-done
		return env.encl.Stats()
	}
	optimized := runOnce(AllOptimizations())
	unoptimized := runOnce(Optimizations{})
	if unoptimized.Ocalls <= optimized.Ocalls {
		t.Fatalf("optimizations did not reduce ocalls: %d (on) vs %d (off)",
			optimized.Ocalls, unoptimized.Ocalls)
	}
	// The paper reports up to 49% fewer ocalls; require a substantial cut.
	reduction := float64(unoptimized.Ocalls-optimized.Ocalls) / float64(unoptimized.Ocalls)
	if reduction < 0.25 {
		t.Fatalf("ocall reduction only %.0f%%: %d -> %d", reduction*100, unoptimized.Ocalls, optimized.Ocalls)
	}
}

func TestConcurrentLibraryConnections(t *testing.T) {
	env := newTestEnv(t, asyncall.ModeAsync)
	lib, err := NewLibrary(env.bridge, LibraryConfig{Cert: env.cert, Key: env.key, Opts: AllOptimizations()})
	if err != nil {
		t.Fatal(err)
	}
	const conns = 8
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
			_, done := echoLibrary(t, lib, sConn)
			client, err := Connect(cConn, clientCfg(env))
			if err != nil {
				t.Error(err)
				return
			}
			msg := []byte("concurrent")
			client.Write(msg)
			buf := make([]byte, len(msg))
			if _, err := io.ReadFull(client, buf); err != nil {
				t.Error(err)
			}
			client.Close()
			<-done
		}()
	}
	wg.Wait()
}

func TestRecordSealOpenProperty(t *testing.T) {
	key := make([]byte, 16)
	iv := make([]byte, 12)
	rand.Read(key)
	rand.Read(iv)
	f := func(data []byte) bool {
		if len(data) > maxRecordPlaintext {
			data = data[:maxRecordPlaintext]
		}
		enc, _ := newSessionKeys(key, iv)
		dec, _ := newSessionKeys(key, iv)
		frame, err := enc.sealFrame(frameAppData, data)
		if err != nil {
			return false
		}
		pt, err := dec.open(frameAppData, frame[frameHeaderLen:])
		if err != nil {
			return false
		}
		return bytes.Equal(pt, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordTamperDetected(t *testing.T) {
	key := make([]byte, 16)
	iv := make([]byte, 12)
	rand.Read(key)
	rand.Read(iv)
	enc, _ := newSessionKeys(key, iv)
	dec, _ := newSessionKeys(key, iv)
	frame, _ := enc.sealFrame(frameAppData, []byte("payload"))
	ct := frame[frameHeaderLen:]
	ct[0] ^= 1
	if _, err := dec.open(frameAppData, ct); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("err = %v, want ErrBadRecord", err)
	}
}

func TestRecordReplayRejected(t *testing.T) {
	key := make([]byte, 16)
	iv := make([]byte, 12)
	rand.Read(key)
	rand.Read(iv)
	enc, _ := newSessionKeys(key, iv)
	dec, _ := newSessionKeys(key, iv)
	frame, _ := enc.sealFrame(frameAppData, []byte("payload"))
	// open works in place, so the replay below needs its own copy.
	ct := append([]byte(nil), frame[frameHeaderLen:]...)
	if _, err := dec.open(frameAppData, frame[frameHeaderLen:]); err != nil {
		t.Fatal(err)
	}
	// Replaying the same ciphertext must fail: the sequence number moved.
	if _, err := dec.open(frameAppData, ct); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("replay accepted: %v", err)
	}
}

// repeatReader serves b over and over.
type repeatReader struct {
	b   []byte
	off int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// TestRecordAllocatesNothing: sealing a record into spare capacity, opening
// one in place and reading a frame off the stream allocate nothing — every
// TLS record of every request passes through them.
func TestRecordAllocatesNothing(t *testing.T) {
	key := make([]byte, 16)
	iv := make([]byte, 12)
	rand.Read(key)
	rand.Read(iv)
	enc, _ := newSessionKeys(key, iv)
	dec, _ := newSessionKeys(key, iv)
	plaintext := bytes.Repeat([]byte("p"), 1024)
	buf := make([]byte, 0, enc.sealedFrameLen(len(plaintext)))
	if n := testing.AllocsPerRun(100, func() {
		frame, err := enc.appendFrame(buf, frameAppData, plaintext)
		if err != nil {
			t.Fatal(err)
		}
		if pt, err := dec.open(frameAppData, frame[frameHeaderLen:]); err != nil || !bytes.Equal(pt, plaintext) {
			t.Fatalf("open: %v", err)
		}
	}); n != 0 {
		t.Fatalf("appendFrame + open: %.1f allocations per record, want 0", n)
	}

	frame, _ := enc.sealFrame(frameAppData, plaintext)
	fr := newFrameReader(&repeatReader{b: frame})
	if n := testing.AllocsPerRun(100, func() {
		if ftype, payload, err := fr.next(); err != nil || ftype != frameAppData || len(payload) != len(frame)-frameHeaderLen {
			t.Fatalf("next: %d, %d bytes, %v", ftype, len(payload), err)
		}
	}); n != 0 {
		t.Fatalf("frameReader.next: %.1f allocations per frame, want 0", n)
	}
}

func TestEnclaveIdentityCertFlow(t *testing.T) {
	env := newTestEnv(t, asyncall.ModeSync)
	platform := enclave.NewPlatform()
	encl, _ := platform.Launch(enclave.Config{Code: []byte("libseal-prod"), MaxThreads: 4, Cost: enclave.ZeroCostModel()})
	bridge, err := asyncall.New(encl, asyncall.Config{Mode: asyncall.ModeSync})
	if err != nil {
		t.Fatal(err)
	}
	defer bridge.Close()

	pub, quote, key, err := GenerateEnclaveIdentity(bridge)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := env.ca.Issue("libseal.prod", pub, &quote)
	if err != nil {
		t.Fatal(err)
	}
	svc := enclave.NewAttestationService(platform)
	lib, err := NewLibrary(bridge, LibraryConfig{Cert: cert, Key: key, Opts: AllOptimizations()})
	if err != nil {
		t.Fatal(err)
	}

	cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
	_, done := echoLibrary(t, lib, sConn)
	// The client verifies the chain AND the enclave binding in-handshake.
	client, err := Connect(cConn, &ClientConfig{
		Roots:      env.pool,
		ServerName: "libseal.prod",
		VerifyPeer: func(c *pki.Certificate) error {
			return env.pool.VerifyEnclaveBinding(c, svc, encl.Measurement())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	<-done
}
