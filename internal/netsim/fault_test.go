package netsim

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

func TestWriteDeadlineOnFullQueue(t *testing.T) {
	a, b := Pipe(LinkConfig{})
	defer a.Close()
	defer b.Close()
	// Fill b's receive queue so further writes block.
	for i := 0; i < cap(b.recv); i++ {
		if _, err := a.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	a.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err := a.Write([]byte("overflow"))
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("write blocked %v past its deadline", elapsed)
	}
	// An already-expired deadline fails immediately.
	a.SetWriteDeadline(time.Now().Add(-time.Second))
	if _, err := a.Write([]byte("late")); err == nil {
		t.Fatal("write after expired deadline succeeded")
	}
	// Clearing the deadline (zero time) restores normal blocking writes
	// once the queue has room again.
	a.SetWriteDeadline(time.Time{})
	buf := make([]byte, 16)
	if _, err := b.Read(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write([]byte("ok")); err != nil {
		t.Fatalf("write after clearing deadline: %v", err)
	}
}

func TestWriteDeadlineBoundsBandwidthDelay(t *testing.T) {
	// 1 KiB at 1 KiB/s takes ~1 s; a 20 ms deadline must cut it short.
	a, b := Pipe(LinkConfig{Bandwidth: 1024})
	defer a.Close()
	defer b.Close()
	a.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	start := time.Now()
	_, err := a.Write(make([]byte, 1024))
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("bandwidth sleep ignored the deadline (%v)", elapsed)
	}
}

func TestFaultDropAndReset(t *testing.T) {
	a, b := Pipe(LinkConfig{})
	defer a.Close()
	defer b.Close()
	var n atomic.Int64
	a.SetFault(func(int) Fault {
		switch n.Add(1) {
		case 1:
			return Fault{Drop: true}
		case 2:
			return Fault{Reset: true}
		}
		return Fault{}
	})
	// Dropped write reports success but nothing arrives.
	if _, err := a.Write([]byte("lost")); err != nil {
		t.Fatalf("dropped write: %v", err)
	}
	// Reset write fails.
	if _, err := a.Write([]byte("reset")); !errors.Is(err, ErrConnReset) {
		t.Fatalf("err = %v, want ErrConnReset", err)
	}
	// Third write passes through; the reader sees only it.
	if _, err := a.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	nr, err := b.Read(buf)
	if err != nil || string(buf[:nr]) != "ok" {
		t.Fatalf("read = %q, %v", buf[:nr], err)
	}
}

func TestFaultDelayAddsLatency(t *testing.T) {
	a, b := Pipe(LinkConfig{})
	defer a.Close()
	defer b.Close()
	a.SetFault(func(int) Fault { return Fault{Delay: 50 * time.Millisecond} })
	start := time.Now()
	if _, err := a.Write([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := b.Read(buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 45*time.Millisecond {
		t.Fatalf("delay fault not applied: delivery took %v", elapsed)
	}
}

func TestNetworkLinkFaultAppliesToLiveConns(t *testing.T) {
	n := NewNetwork()
	l, err := n.Listen("svc:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	c, err := n.Dial("svc:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := <-accepted
	defer srv.Close()

	// Partition the live connection.
	n.SetLinkFault("svc:1", func(int) Fault { return Fault{Reset: true} })
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrConnReset) {
		t.Fatalf("client write: %v, want ErrConnReset", err)
	}
	if _, err := srv.Write([]byte("x")); !errors.Is(err, ErrConnReset) {
		t.Fatalf("server write: %v, want ErrConnReset", err)
	}
	// Heal it; traffic flows again, and new conns are clean too.
	n.SetLinkFault("svc:1", nil)
	if _, err := c.Write([]byte("ok")); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
}
