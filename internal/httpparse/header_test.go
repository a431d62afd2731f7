package httpparse

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// headerKeys are the field names the header differential draws from: one
// name in several cases, names that differ only around a '-', and the
// non-ASCII bytes a Unicode-aware fold would take for ASCII letters
// (U+212A KELVIN SIGN for 'k', U+017F LONG S for 's', a lone 0xFF).
var headerKeys = []string{
	"content-length", "Content-Length", "CONTENT-LENGTH", "cONTENT-lENGTH",
	"transfer-encoding", "x-a", "X-A", "x-a-b", "X-A-B", "x-ab",
	"key", "KEY", "\u212Aey", "\u212AEY", "set", "SET", "\u017Fet",
	"\xffa", "\xffA", "\xff", "-", "a--b", "A--B", "",
}

// runHeaderOps applies the operations data encodes to a Header and to the
// frozen map-based one, failing at the first result or encoded byte on
// which they differ. Each operation is three bytes — what to do, the key
// and the value — and a key byte past headerKeys takes the key from the
// next bytes of data instead, so a fuzzer can reach any name.
func runHeaderOps(t *testing.T, data []byte) {
	t.Helper()
	h, o := NewHeader(), newOracleHeader()
	for step := 0; len(data) >= 3; step++ {
		op, kb, vb := data[0], int(data[1]), data[2]
		data = data[3:]
		var k string
		if kb < len(headerKeys) {
			k = headerKeys[kb]
		} else {
			n := min(kb%6, len(data))
			k, data = string(data[:n]), data[n:]
		}
		v := fmt.Sprintf("v%d", vb)
		fail := func(what string, got, want any) {
			t.Helper()
			t.Fatalf("step %d, %s(%q): got %q, oracle %q", step, what, k, got, want)
		}
		switch op % 8 {
		case 0:
			h.Add(k, v)
			o.Add(k, v)
		case 1:
			h.Set(k, v)
			o.Set(k, v)
		case 2:
			h.Del(k)
			o.Del(k)
		case 3:
			if got, want := h.Get(k), o.Get(k); got != want {
				fail("Get", got, want)
			}
		case 4:
			if got, want := h.Has(k), o.Has(k); got != want {
				fail("Has", got, want)
			}
		case 5:
			// Go on with the copies after changing the originals: a shallow
			// copy would show the change.
			hc, oc := h.Clone(), o.Clone()
			h.Add(k, "after clone")
			o.Add(k, "after clone")
			h, o = hc, oc
		case 6:
			var body []byte
			if vb%2 == 1 {
				body = []byte(v)
			}
			req := &Request{Method: "POST", Path: "/p", Proto: "HTTP/1.1", Header: h, Body: body}
			if got, want := req.Bytes(), oracleRequestBytes("POST", "/p", "HTTP/1.1", o, body); !bytes.Equal(got, want) {
				fail("request encoding", got, want)
			}
			rsp := &Response{Proto: "HTTP/1.1", Status: int(vb) * 3, Header: h, Body: body}
			if got, want := rsp.Bytes(), oracleResponseBytes("HTTP/1.1", int(vb)*3, "", o, body); !bytes.Equal(got, want) {
				fail("response encoding", got, want)
			}
		case 7:
			if got, want := h.Keys(), o.Keys(); !slices.Equal(got, want) {
				fail("Keys", got, want)
			}
		}
	}
	var want bytes.Buffer
	o.writeTo(&want)
	if got := h.appendTo(nil); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("header section at the end: got %q, oracle %q", got, want.Bytes())
	}
	if got, want := h.Keys(), o.Keys(); !slices.Equal(got, want) {
		t.Fatalf("Keys at the end: got %q, oracle %q", got, want)
	}
}

// TestHeaderDifferential holds the slice-backed Header to the map-based one
// it replaced on random operation sequences.
func TestHeaderDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 2000; seq++ {
		data := make([]byte, 3*(1+rng.Intn(60)))
		for i := range data {
			data[i] = byte(rng.Intn(256))
			if i%3 == 1 && rng.Intn(8) != 0 {
				data[i] = byte(rng.Intn(len(headerKeys))) // mostly named keys, so they repeat
			}
		}
		runHeaderOps(t, data)
	}
}

// FuzzHeaderDifferential asserts the header differential on arbitrary
// operation sequences.
func FuzzHeaderDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 2, 6, 2, 1, 3, 12, 0, 4, 16, 0})
	f.Add([]byte{0, 5, 1, 0, 7, 2, 0, 6, 3, 1, 5, 4, 5, 200, 0, 6, 0, 1})
	f.Add([]byte{0, 250, 0, 'a', 'b', 0, 250, 1, 'A', 'B', 2, 10, 0, 6, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*200 {
			data = data[:3*200] // every prefix of a long sequence is a shorter input
		}
		runHeaderOps(t, data)
	})
}

// TestParsedHeaderGroupsLikeAdd: the parser appends fields as they arrive
// and groups them once the section ends — pairwise up to groupScan fields,
// by sorting past it. Either way the result must be what adding the same
// fields one by one to the frozen header gives.
func TestParsedHeaderGroupsLikeAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	names := []string{"a", "B", "x-y", "X-Y", "c", "Content-Type", "z"}
	for _, n := range []int{0, 1, 2, 3, groupScan - 1, groupScan, groupScan + 1, 40, 300} {
		for round := 0; round < 20; round++ {
			var msg strings.Builder
			msg.WriteString("GET / HTTP/1.1\r\n")
			want := newOracleHeader()
			for i := 0; i < n; i++ {
				k, v := names[rng.Intn(len(names))], fmt.Sprintf("%d", i)
				fmt.Fprintf(&msg, "%s: %s\r\n", k, v)
				want.Add(k, v)
			}
			msg.WriteString("\r\n")
			req, err := ParseRequestBytes([]byte(msg.String()))
			if err != nil {
				t.Fatal(err)
			}
			var wantSection bytes.Buffer
			want.writeTo(&wantSection)
			if got := req.Header.appendTo(nil); !bytes.Equal(got, wantSection.Bytes()) {
				t.Fatalf("%d fields:\n got %q\nwant %q", n, got, wantSection.Bytes())
			}
		}
	}
}
