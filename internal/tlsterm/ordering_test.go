package tlsterm

import (
	"bytes"
	"crypto/ecdh"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/netsim"
)

// The two-ecall handshake is a state machine over one connection id (DESIGN.md
// §4): no session → half-open → established → closed. These tests deliver
// acceptHello, acceptFinished, Read, Write and Close in every order, on the
// right id and on wrong ones, and compare the enclave's session table with a
// model after every step.

// scriptClient is the client side of the handshake taken apart into the
// frames it sends, so a test can deliver each to any step of any connection.
// It checks nothing and never presents a certificate.
type scriptClient struct {
	eph   *ecdh.PrivateKey
	hello []byte // the ClientHello frame
	tr    transcript
	keys  *keySchedule // nil until finished has seen a ServerHello
}

func newScriptClient(t *testing.T) *scriptClient {
	t.Helper()
	eph, err := generateEphemeral()
	if err != nil {
		t.Fatal(err)
	}
	ch := &clientHello{EphPub: eph.PublicKey().Bytes()}
	if err := fillRandom(ch.Random[:]); err != nil {
		t.Fatal(err)
	}
	c := &scriptClient{eph: eph, hello: frameBytes(frameClientHello, ch.marshal())}
	c.tr.add(c.hello[frameHeaderLen:])
	return c
}

// finished derives the session keys from a ServerHello payload and returns
// the ClientFinished frame.
func (c *scriptClient) finished(t *testing.T, serverHello []byte) []byte {
	t.Helper()
	sh, err := parseServerHello(serverHello)
	if err != nil {
		t.Fatal(err)
	}
	c.tr.add(serverHello)
	shared, err := ecdhShared(c.eph, sh.EphPub)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := parseClientHello(c.hello[frameHeaderLen:])
	if c.keys, err = deriveKeys(shared, ch.Random[:], sh.Random[:]); err != nil {
		t.Fatal(err)
	}
	cf := (&clientFinished{MAC: finishedMAC(c.keys.finKey, &c.tr, "client finished")}).marshal()
	c.tr.add(cf)
	frame, err := c.keys.client.sealFrame(frameClientFinished, cf)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// scriptConn is the transport under an SSL whose steps the test delivers by
// hand: reads drain the frames the test queued, writes are kept for it to
// inspect. Close is a no-op, so a frame can still reach a closed connection.
type scriptConn struct {
	net.Conn
	in, out bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *scriptConn) Close() error                { return nil }

// Session-table states of one connection id.
const (
	stNone = iota
	stHalfOpen
	stEstablished
)

// scriptedSSL is one connection driven step by step, with the model of what
// state each step must leave.
type scriptedSSL struct {
	t      *testing.T
	name   string // for failure messages
	lib    *Library
	ssl    *SSL
	conn   *scriptConn
	client *scriptClient // of the handshake the connection is in, if any
	cf     []byte        // that client's ClientFinished frame, until delivered

	state  int
	closed bool
}

func newScriptedSSL(t *testing.T, lib *Library, name string) *scriptedSSL {
	conn := &scriptConn{}
	return &scriptedSSL{t: t, name: name, lib: lib, ssl: lib.NewSSL(conn), conn: conn}
}

// ecall delivers one frame to a handshake step the way SSL.Accept's wrapper
// does — in a buffer of its own, since records are opened in place — and
// returns the step's reply payload.
func (c *scriptedSSL) ecall(step func(*asyncall.Env, byte, []byte) ([]byte, error), frame []byte) (reply []byte, err error) {
	frame = append([]byte(nil), frame...)
	err = c.lib.bridge.Call(func(env *asyncall.Env) error {
		var err error
		reply, err = step(env, frame[0], frame[frameHeaderLen:])
		return err
	})
	if err == nil {
		reply = reply[frameHeaderLen:]
	}
	return reply, err
}

// junk is a well-framed frame of the given type that no key ever sealed.
func junk(ftype byte) []byte {
	return frameBytes(ftype, bytes.Repeat([]byte{0x5a}, 48))
}

// want fails the test unless err is the documented outcome.
func (c *scriptedSSL) want(op string, err, want error) {
	c.t.Helper()
	if want == nil && err != nil || want != nil && !errors.Is(err, want) {
		c.t.Fatalf("%s: %s with the connection %s: err = %v, want %v", c.name, op, c.describe(), err, want)
	}
}

func (c *scriptedSSL) describe() string {
	s := [...]string{"not begun", "half-open", "established"}[c.state]
	if c.closed {
		s = "closed"
	}
	return s
}

// refusal is the error every step but Close returns when the connection is
// not in the state the step needs.
func (c *scriptedSSL) refusal(needs int) error {
	switch {
	case c.closed:
		return ErrClosed
	case c.state == needs:
		return nil
	case needs == stNone:
		return ErrHandshakeFailed // a second ClientHello
	}
	return ErrClosed
}

// step performs one operation — 'H' acceptHello, 'F' acceptFinished, 'R'
// Read, 'W' Write, 'C' Close — with the frame a well-behaved peer would have
// sent if there is one and a junk frame otherwise, and checks the outcome
// and the session table against the model.
func (c *scriptedSSL) step(op byte) {
	c.t.Helper()
	switch op {
	case 'H':
		client := newScriptClient(c.t)
		serverHello, err := c.ecall(c.ssl.acceptHello, client.hello)
		want := c.refusal(stNone)
		c.want("acceptHello", err, want)
		if want == nil {
			c.client, c.cf, c.state = client, client.finished(c.t, serverHello), stHalfOpen
		}
	case 'F':
		frame, want := c.cf, c.refusal(stHalfOpen)
		if want != nil {
			frame = junk(frameClientFinished)
		}
		serverFinished, err := c.ecall(c.ssl.acceptFinished, frame)
		c.want("acceptFinished", err, want)
		if want == nil {
			c.cf, c.state = nil, stEstablished
			mac, err := c.client.keys.server.open(frameServerFinished, serverFinished)
			if err != nil || !macEqual(mac, finishedMAC(c.client.keys.finKey, &c.client.tr, "server finished")) {
				c.t.Fatalf("%s: ServerFinished does not verify: %v", c.name, err)
			}
		}
	case 'R':
		frame, want := junk(frameAppData), c.refusal(stEstablished)
		if want == nil {
			frame, _ = c.client.keys.client.sealFrame(frameAppData, []byte("ping"))
		}
		c.conn.in.Write(frame)
		buf := make([]byte, 16)
		n, err := c.ssl.Read(buf)
		c.want("Read", err, want)
		if want == nil && string(buf[:n]) != "ping" {
			c.t.Fatalf("%s: Read = %q, want ping", c.name, buf[:n])
		}
	case 'W':
		c.conn.out.Reset()
		_, err := c.ssl.Write([]byte("pong"))
		want := c.refusal(stEstablished)
		c.want("Write", err, want)
		if want == nil {
			frame := c.conn.out.Bytes()
			if pt, err := c.client.keys.server.openFrame(frame[0], frame[frameHeaderLen:]); err != nil || string(pt) != "pong" {
				c.t.Fatalf("%s: Write put %q, %v on the wire, want pong", c.name, pt, err)
			}
		}
	case 'C':
		c.want("Close", c.ssl.Close(), nil)
		c.state, c.closed = stNone, true
	}
	c.checkTable()
}

// failFinished delivers frame, which is not this connection's ClientFinished,
// to acceptFinished: the step refuses it and the half-open handshake is spent.
func (c *scriptedSSL) failFinished(frame []byte, want error) {
	c.t.Helper()
	_, err := c.ecall(c.ssl.acceptFinished, frame)
	c.want("acceptFinished of a foreign frame", err, want)
	c.cf, c.state = nil, stNone
	c.checkTable()
}

// sessionsInside counts the sessions, half-open or established, the enclave
// holds.
func sessionsInside(lib *Library) int {
	lib.inside.mu.Lock()
	defer lib.inside.mu.Unlock()
	return len(lib.inside.sessions)
}

// checkTable compares the enclave's session for this id with the model.
func (c *scriptedSSL) checkTable() {
	c.t.Helper()
	c.lib.inside.mu.Lock()
	sess := c.lib.inside.sessions[c.ssl.id]
	c.lib.inside.mu.Unlock()
	got := stNone
	switch {
	case sess != nil && sess.hs != nil:
		got = stHalfOpen
	case sess != nil:
		got = stEstablished
	}
	if got != c.state {
		c.t.Fatalf("%s: session table holds state %d for the connection, model says %s", c.name, got, c.describe())
	}
}

// orderings is every sequence of one to five of the five operations,
// repetition allowed: all 120 orderings of the five, and every shorter or
// repeating one (a second hello, a second finished, a read after a read, …).
func orderings() []string {
	const ops = "HFRWC"
	var out []string
	var extend func(prefix string)
	extend = func(prefix string) {
		if prefix != "" {
			out = append(out, prefix)
		}
		if len(prefix) < len(ops) {
			for i := range ops {
				extend(prefix + ops[i:i+1])
			}
		}
	}
	extend("")
	return out
}

func orderingLibrary(t *testing.T, mode asyncall.Mode) (*testEnv, *Library) {
	env := newTestEnv(t, mode)
	lib, err := NewLibrary(env.bridge, LibraryConfig{Cert: env.cert, Key: env.key, Opts: AllOptimizations()})
	if err != nil {
		t.Fatal(err)
	}
	return env, lib
}

func testHandshakeOrderings(t *testing.T, mode asyncall.Mode) {
	_, lib := orderingLibrary(t, mode)
	for _, seq := range orderings() {
		c := newScriptedSSL(t, lib, "ordering "+seq)
		for i := range seq {
			c.step(seq[i])
		}
		c.step('C')
		if n := sessionsInside(lib); n != 0 {
			t.Fatalf("ordering %s: %d sessions left once the connection is closed", seq, n)
		}
	}
}

func TestHandshakeOrderingsSync(t *testing.T)  { testHandshakeOrderings(t, asyncall.ModeSync) }
func TestHandshakeOrderingsAsync(t *testing.T) { testHandshakeOrderings(t, asyncall.ModeAsync) }

// testHandshakeWrongID delivers steps to an id they were not meant for: a
// connection that never began, a neighbour mid-handshake, a neighbour's
// established session, a closed one. The step is refused and the neighbour's
// own handshake is not disturbed.
func testHandshakeWrongID(t *testing.T, mode asyncall.Mode) {
	_, lib := orderingLibrary(t, mode)
	a, b, idle := newScriptedSSL(t, lib, "a"), newScriptedSSL(t, lib, "b"), newScriptedSSL(t, lib, "idle")

	// b's ClientFinished delivered to a: refused, a's handshake is spent and
	// cannot be resumed with the right frame; b still completes.
	a.step('H')
	b.step('H')
	own := a.cf
	a.failFinished(b.cf, ErrBadRecord)
	a.failFinished(own, ErrClosed)
	b.step('F')
	b.step('R')

	// A frame sealed for b delivered to a's established session: refused,
	// and neither stream loses its place.
	a.step('H')
	a.step('F')
	foreign, _ := b.client.keys.client.sealFrame(frameAppData, []byte("for b"))
	a.conn.in.Write(foreign)
	if _, err := a.ssl.Read(make([]byte, 16)); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("a read b's record: %v", err)
	}
	a.checkTable()
	a.step('R')
	a.step('W')
	b.conn.in.Write(foreign)
	if n, err := b.ssl.Read(make([]byte, 16)); err != nil || n != len("for b") {
		t.Fatalf("b reading its own record: %d, %v", n, err)
	}

	// Steps on an id that never began while others are live.
	for _, op := range []byte("FRW") {
		idle.step(op)
	}
	a.checkTable()
	b.checkTable()

	// Steps on a closed id, b's ClientHello included.
	a.step('C')
	for _, op := range []byte("HFRWC") {
		a.step(op)
	}
	b.step('C')
	idle.step('C')
	if n := sessionsInside(lib); n != 0 {
		t.Fatalf("%d sessions left once every connection is closed", n)
	}
}

func TestHandshakeWrongIDSync(t *testing.T)  { testHandshakeWrongID(t, asyncall.ModeSync) }
func TestHandshakeWrongIDAsync(t *testing.T) { testHandshakeWrongID(t, asyncall.ModeAsync) }

// testCloseDuringAccept closes a connection from another goroutine at every
// stage of a real handshake — before the ClientHello, between the two ecalls,
// after ServerFinished. Whatever Accept returns, once both have returned the
// enclave holds no session for the connection.
func testCloseDuringAccept(t *testing.T, mode asyncall.Mode) {
	env, lib := orderingLibrary(t, mode)
	for round := 0; round < 40; round++ {
		cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
		ssl := lib.NewSSL(sConn)
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			ssl.Accept()
		}()
		go func() {
			defer wg.Done()
			if c, err := Connect(cConn, clientCfg(env)); err == nil {
				c.Close()
			}
			cConn.Close()
		}()
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(round) * 50 * time.Microsecond)
			ssl.Close()
		}()
		wg.Wait()
		lib.inside.mu.Lock()
		sess := lib.inside.sessions[ssl.id]
		lib.inside.mu.Unlock()
		if sess != nil {
			t.Fatalf("round %d: a session outlived Close (half-open: %v)", round, sess.hs != nil)
		}
	}
}

func TestCloseDuringAcceptSync(t *testing.T)  { testCloseDuringAccept(t, asyncall.ModeSync) }
func TestCloseDuringAcceptAsync(t *testing.T) { testCloseDuringAccept(t, asyncall.ModeAsync) }
