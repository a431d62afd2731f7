package netsim

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// The wire's pooled copies: a frame-sized write is copied into a buffer
// Read gives back once the bytes are consumed.

// writeThenScribble writes p and then overwrites it, as a writer reusing its
// buffer does the moment Write returns.
func writeThenScribble(t *testing.T, c *Conn, p []byte) {
	t.Helper()
	if _, err := c.Write(p); err != nil {
		t.Fatal(err)
	}
	for i := range p {
		p[i] = 0xEE
	}
}

// message returns n bytes numbered from seed, so two messages differ.
func message(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// TestWriterMayReuseBuffer: whatever the writer does with p once Write has
// returned, the reader gets the bytes as written — read whole, read in
// pieces through the leftover, over a latency link, and drained after the
// writer closed. Sizes cover an exact copy, the pooled range's ends and a
// write larger than a pooled buffer; several writes are queued at once, so
// a buffer handed back is reused while others are still queued.
func TestWriterMayReuseBuffer(t *testing.T) {
	sizes := []int{100, minPooledWrite - 1, minPooledWrite, 16<<10 + 100, frameBufSize, frameBufSize + 1}
	for _, tc := range []struct {
		name  string
		cfg   LinkConfig
		chunk int // read size; 0 reads each message whole
		close bool
	}{
		{name: "whole"},
		{name: "partial", chunk: 4000},
		{name: "latency", cfg: LinkConfig{Latency: 200 * time.Microsecond}, chunk: 5000},
		{name: "drained after close", chunk: 3000, close: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := Pipe(tc.cfg)
			defer b.Close()
			var want []byte
			for round := 0; round < 3; round++ {
				for i, n := range sizes {
					p := message(n, byte(round*len(sizes)+i))
					want = append(want, p...)
					writeThenScribble(t, a, p)
				}
			}
			if tc.close {
				a.Close()
			} else {
				defer a.Close()
			}
			got := make([]byte, 0, len(want))
			if tc.chunk == 0 {
				for range 3 {
					for _, n := range sizes {
						buf := make([]byte, n)
						k, err := b.Read(buf)
						if err != nil || k != n {
							t.Fatalf("Read = %d, %v; want one whole %d-byte write", k, err, n)
						}
						got = append(got, buf...)
					}
				}
			} else {
				buf := make([]byte, tc.chunk)
				for len(got) < len(want) {
					k, err := b.Read(buf)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, buf[:k]...)
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatal("reader got bytes the writer overwrote")
			}
			if tc.close {
				if _, err := b.Read(make([]byte, 1)); err != io.EOF {
					t.Fatalf("Read after drain = %v, want EOF", err)
				}
			}
		})
	}
}

// TestFrameWriteAllocatesNothing: a frame-sized write and the read that
// consumes it allocate nothing once the pool holds a buffer.
func TestFrameWriteAllocatesNothing(t *testing.T) {
	a, b := Pipe(LinkConfig{})
	defer a.Close()
	defer b.Close()
	frame := message(16<<10, 1)
	buf := make([]byte, len(frame))
	n := testing.AllocsPerRun(100, func() {
		if _, err := a.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(b, buf); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("16 KiB write and read: %.1f allocations, want 0", n)
	}
	if !bytes.Equal(buf, frame) {
		t.Fatal("read a different frame")
	}
}

// TestSmallWriteHoldsNoFrameBuffer: a write below the pooled range is queued
// in a copy of its own size, so it pins no frame-sized buffer however long
// it waits; one inside the range is queued in a pooled buffer.
func TestSmallWriteHoldsNoFrameBuffer(t *testing.T) {
	a, b := Pipe(LinkConfig{})
	defer a.Close()
	defer b.Close()
	for _, n := range []int{0, 1, 1100, minPooledWrite - 1, minPooledWrite, 16 << 10, frameBufSize + 1} {
		if _, err := a.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		it := <-b.recv
		want := n
		if n >= minPooledWrite && n <= frameBufSize {
			want = frameBufSize
		}
		if len(it.data) != n || cap(it.data) != want {
			t.Fatalf("%d-byte write queued as %d bytes in a buffer of %d, want %d", n, len(it.data), cap(it.data), want)
		}
		recycle(it.data)
	}
}
