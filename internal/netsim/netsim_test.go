package netsim

import (
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe(LinkConfig{})
	defer a.Close()
	defer b.Close()
	msg := []byte("hello over the simulated wire")
	go func() {
		if _, err := a.Write(msg); err != nil {
			t.Error(err)
		}
	}()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("got %q", buf)
	}
}

func TestPartialReads(t *testing.T) {
	a, b := Pipe(LinkConfig{})
	defer a.Close()
	defer b.Close()
	go a.Write([]byte("abcdef"))
	buf := make([]byte, 2)
	var got []byte
	for len(got) < 6 {
		n, err := b.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if string(got) != "abcdef" {
		t.Fatalf("got %q", got)
	}
}

func TestLatencyCharged(t *testing.T) {
	const lat = 30 * time.Millisecond
	a, b := Pipe(LinkConfig{Latency: lat})
	defer a.Close()
	defer b.Close()
	start := time.Now()
	go a.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := b.Read(buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < lat {
		t.Fatalf("read completed in %v, want >= %v", elapsed, lat)
	}
}

// A sub-millisecond link delivers after its latency, not after a runtime
// timer's millisecond. The median bound gets three rounds, so a round a
// loaded machine slowed does not fail it; a timer fails all three.
func TestSubMillisecondLatency(t *testing.T) {
	const lat = 300 * time.Microsecond
	a, b := Pipe(LinkConfig{Latency: lat})
	defer a.Close()
	defer b.Close()
	buf := make([]byte, 1)
	for round := 0; ; round++ {
		took := make([]time.Duration, 31)
		for i := range took {
			start := time.Now()
			if _, err := a.Write([]byte("x")); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Read(buf); err != nil {
				t.Fatal(err)
			}
			took[i] = time.Since(start)
			if took[i] < lat {
				t.Fatalf("read %d after %v, under the %v latency", i, took[i], lat)
			}
		}
		slices.Sort(took)
		med := took[len(took)/2]
		if med <= lat+400*time.Microsecond {
			return
		}
		if round == 2 {
			t.Fatalf("median delivery %v on a %v link", med, lat)
		}
	}
}

func TestBandwidthCharged(t *testing.T) {
	// 1 KB at 10 KB/s should take ~100 ms to serialise.
	a, b := Pipe(LinkConfig{Bandwidth: 10 * 1024})
	defer a.Close()
	defer b.Close()
	done := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		a.Write(make([]byte, 1024))
		done <- time.Since(start)
	}()
	buf := make([]byte, 1024)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if d := <-done; d < 80*time.Millisecond {
		t.Fatalf("1KB at 10KB/s serialised in %v, want ~100ms", d)
	}
}

func TestEOFAfterCloseDrainsData(t *testing.T) {
	a, b := Pipe(LinkConfig{})
	if _, err := a.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	buf := make([]byte, 16)
	n, err := b.Read(buf)
	if err != nil || string(buf[:n]) != "tail" {
		t.Fatalf("Read = %q, %v; want buffered data", buf[:n], err)
	}
	if _, err := b.Read(buf); !errors.Is(err, io.EOF) {
		t.Fatalf("second Read err = %v, want EOF", err)
	}
}

func TestWriteAfterPeerClose(t *testing.T) {
	a, b := Pipe(LinkConfig{})
	b.Close()
	if _, err := a.Write([]byte("x")); err == nil {
		t.Fatal("Write to closed peer succeeded")
	}
	a.Close()
	if _, err := a.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Write on closed conn = %v, want net.ErrClosed", err)
	}
}

func TestReadDeadline(t *testing.T) {
	a, b := Pipe(LinkConfig{})
	defer a.Close()
	defer b.Close()
	b.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	buf := make([]byte, 1)
	_, err := b.Read(buf)
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("Read = %v, want timeout", err)
	}
	// Clearing the deadline lets reads proceed.
	b.SetReadDeadline(time.Time{})
	go a.Write([]byte("y"))
	if _, err := b.Read(buf); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkDialListen(t *testing.T) {
	n := NewNetwork()
	l, err := n.Listen("svc:443")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		io.Copy(conn, conn) // echo
	}()
	c, err := n.Dial("svc:443")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("echo = %q, %v", buf, err)
	}
	c.Close()
	wg.Wait()
}

func TestDialUnknownAddress(t *testing.T) {
	n := NewNetwork()
	if _, err := n.Dial("nowhere"); !errors.Is(err, ErrConnectionRefused) {
		t.Fatalf("err = %v, want ErrConnectionRefused", err)
	}
}

func TestDuplicateListen(t *testing.T) {
	n := NewNetwork()
	l, _ := n.Listen("a")
	defer l.Close()
	if _, err := n.Listen("a"); !errors.Is(err, ErrAddressInUse) {
		t.Fatalf("err = %v, want ErrAddressInUse", err)
	}
}

func TestListenerCloseReleasesAddress(t *testing.T) {
	n := NewNetwork()
	l, _ := n.Listen("a")
	l.Close()
	if _, err := n.Listen("a"); err != nil {
		t.Fatalf("re-listen after close: %v", err)
	}
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept after close = %v, want net.ErrClosed", err)
	}
}

func TestPerAddressLink(t *testing.T) {
	n := NewNetwork()
	n.SetLink("wan", LinkConfig{Latency: 25 * time.Millisecond})
	l, _ := n.Listen("wan")
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1)
		conn.Read(buf)
		conn.Write(buf)
	}()
	c, err := n.Dial("wan")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	c.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	// Round trip over a 25 ms one-way link must take at least 50 ms.
	if rtt := time.Since(start); rtt < 50*time.Millisecond {
		t.Fatalf("rtt = %v, want >= 50ms", rtt)
	}
}

func TestConcurrentTransfersInterleave(t *testing.T) {
	a, b := Pipe(LinkConfig{})
	defer a.Close()
	defer b.Close()
	const n = 64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			a.Write([]byte{byte(i)})
		}
	}()
	got := make([]byte, 0, n)
	buf := make([]byte, 16)
	for len(got) < n {
		k, err := b.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:k]...)
	}
	for i := 0; i < n; i++ {
		if got[i] != byte(i) {
			t.Fatalf("out of order at %d: %v", i, got[:i+1])
		}
	}
	wg.Wait()
}

func TestAddrs(t *testing.T) {
	a, b := NamedPipe(LinkConfig{}, "x", "y")
	defer a.Close()
	defer b.Close()
	if a.LocalAddr().String() != "x" || a.RemoteAddr().String() != "y" {
		t.Fatalf("a addrs = %v/%v", a.LocalAddr(), a.RemoteAddr())
	}
	if b.LocalAddr().String() != "y" || b.RemoteAddr().String() != "x" {
		t.Fatalf("b addrs = %v/%v", b.LocalAddr(), b.RemoteAddr())
	}
	if a.LocalAddr().Network() != "sim" {
		t.Fatal("network name")
	}
}
