package tlsterm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/enclave"
	"libseal/internal/netsim"
	"libseal/internal/telemetry"
)

// within runs fn and fails the test if it has not returned after five
// seconds — the step's timeout is how a starved enclave shows.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still waiting after 5s", what)
	}
}

func gauge(t *testing.T, name string) int64 {
	t.Helper()
	m, ok := telemetry.Get(name)
	if !ok {
		t.Fatalf("gauge %s not registered", name)
	}
	return m.Value
}

// testIdleConnections loads an enclave's thread slots on purpose: two TCS
// slots (async: one scheduler thread with two lthread tasks), eight
// established keep-alive connections idle in SSL_read and four sockets that
// never send a ClientHello. None of the twelve may hold a slot, a task or a
// place in the contention count, so a fresh client handshakes and echoes.
func testIdleConnections(t *testing.T, mode asyncall.Mode) {
	env := newTestEnv(t, asyncall.ModeSync) // for its CA and server identity
	callers0, busy0 := gauge(t, "enclave.callers"), gauge(t, "enclave.tcs_busy")
	encl, err := enclave.NewPlatform().Launch(enclave.Config{
		Code: []byte("libseal-tls"), MaxThreads: 2, Cost: enclave.ZeroCostModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	bridge, err := asyncall.New(encl, asyncall.Config{Mode: mode, AppSlots: 16, Schedulers: 1, TasksPerScheduler: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bridge.Close)
	// The async bridge's scheduler thread lives in the enclave for good.
	resident := int64(0)
	if mode == asyncall.ModeAsync {
		resident = 1
	}
	lib, err := NewLibrary(bridge, LibraryConfig{Cert: env.cert, Key: env.key, Opts: AllOptimizations()})
	if err != nil {
		t.Fatal(err)
	}

	var servers sync.WaitGroup
	var clientEnds []net.Conn
	t.Cleanup(func() {
		for _, c := range clientEnds {
			c.Close()
		}
		servers.Wait()
	})
	serve := func() net.Conn {
		cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
		clientEnds = append(clientEnds, cConn)
		servers.Add(1)
		go func() {
			defer servers.Done()
			_, done := echoLibrary(t, lib, sConn)
			<-done
			sConn.Close()
		}()
		return cConn
	}

	for i := 0; i < 8; i++ {
		cConn := serve()
		within(t, fmt.Sprintf("establishing idle connection %d", i), func() error {
			_, err := Connect(cConn, clientCfg(env))
			return err
		})
	}
	for i := 0; i < 4; i++ {
		serve() // the server end sits in SSL_accept; the client never speaks
	}

	// Occupancy settles at the resident threads alone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		callers, busy := gauge(t, "enclave.callers")-callers0, gauge(t, "enclave.tcs_busy")-busy0
		if callers == resident && busy == resident {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("with 12 idle sockets: enclave.callers = %d, enclave.tcs_busy = %d, want %d each", callers, busy, resident)
		}
		time.Sleep(time.Millisecond)
	}

	cConn := serve()
	within(t, "fresh client: handshake and 50 echo round trips", func() error {
		client, err := Connect(cConn, clientCfg(env))
		if err != nil {
			return err
		}
		buf := make([]byte, 64)
		for i := 0; i < 50; i++ {
			msg := []byte(fmt.Sprintf("round trip %02d through a two-slot enclave", i))
			if _, err := client.Write(msg); err != nil {
				return err
			}
			if _, err := io.ReadFull(client, buf[:len(msg)]); err != nil {
				return err
			}
			if !bytes.Equal(buf[:len(msg)], msg) {
				return fmt.Errorf("round trip %d echoed %q", i, buf[:len(msg)])
			}
		}
		return nil
	})
}

func TestIdleConnectionsHoldNoEnclaveThreadSync(t *testing.T) {
	testIdleConnections(t, asyncall.ModeSync)
}

func TestIdleConnectionsHoldNoEnclaveThreadAsync(t *testing.T) {
	testIdleConnections(t, asyncall.ModeAsync)
}

// testWriteOrder has two goroutines SSL_write concurrently on one
// connection. Frames are sealed inside the enclave and written by the
// wrapper after the ecall has exited; the sequence numbers consumed inside
// must reach the wire in order, or the client's AEAD rejects the stream.
// Each write is one message (length, writer, fill), some spanning several
// records, and must arrive whole.
func testWriteOrder(t *testing.T, mode asyncall.Mode) {
	env := newTestEnv(t, mode)
	lib, err := NewLibrary(env.bridge, LibraryConfig{Cert: env.cert, Key: env.key, Opts: AllOptimizations()})
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
	ssl := lib.NewSSL(sConn)
	accepted := make(chan error, 1)
	go func() { accepted <- ssl.Accept() }()
	client, err := Connect(cConn, clientCfg(env))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	defer ssl.Close()

	const perWriter = 40
	sizes := []int{1, 100, 5000, maxRecordPlaintext - 5, maxRecordPlaintext + 1, 40_000}
	var writers sync.WaitGroup
	for w := byte(1); w <= 2; w++ {
		writers.Add(1)
		go func(w byte) {
			defer writers.Done()
			for i := 0; i < perWriter; i++ {
				msg := make([]byte, 5+sizes[(i+int(w))%len(sizes)])
				binary.BigEndian.PutUint32(msg, uint32(len(msg)-5))
				for j := 4; j < len(msg); j++ {
					msg[j] = w
				}
				if _, err := ssl.Write(msg); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	seen := map[byte]int{}
	within(t, "reading both writers' messages", func() error {
		var hdr [5]byte
		for n := 0; n < 2*perWriter; n++ {
			if _, err := io.ReadFull(client, hdr[:]); err != nil {
				return fmt.Errorf("message %d: %w", n, err)
			}
			body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
			if _, err := io.ReadFull(client, body); err != nil {
				return fmt.Errorf("message %d: %w", n, err)
			}
			if bytes.Count(body, hdr[4:5]) != len(body) {
				return fmt.Errorf("message %d of writer %d is interleaved with another write", n, hdr[4])
			}
			seen[hdr[4]]++
		}
		return nil
	})
	writers.Wait()
	if seen[1] != perWriter || seen[2] != perWriter {
		t.Fatalf("messages per writer = %v, want %d each", seen, perWriter)
	}
}

func TestWriteOrderSync(t *testing.T)  { testWriteOrder(t, asyncall.ModeSync) }
func TestWriteOrderAsync(t *testing.T) { testWriteOrder(t, asyncall.ModeAsync) }
