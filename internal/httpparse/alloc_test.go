package httpparse

import "testing"

// The allocation gates: what a request costs in garbage where it is framed,
// parsed and encoded on every static request. (Counted without the race
// detector in CI, like the other allocation gates; they hold under it too.)

// benchRequest is the harness's static request: a GET with its request-id
// header, and the check header a checking client adds.
var benchRequest = []byte("GET /s HTTP/1.1\r\nX-Bench-Req: 1099511627777\r\nLibseal-Check: 1\r\n\r\n")

// TestFrameAllocatesNothing: the core tap frames every message it sees, so
// framing — a request, a response with a Content-Length body, a chunked one —
// allocates nothing.
func TestFrameAllocatesNothing(t *testing.T) {
	rsp := NewResponse(200, make([]byte, 1024)).Bytes()
	chunked := []byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n")
	if n := testing.AllocsPerRun(100, func() {
		if n, has, err := FrameRequest(benchRequest, "Libseal-Check"); err != nil || !has || n != len(benchRequest) {
			t.Fatalf("FrameRequest = %d, %v, %v", n, has, err)
		}
	}); n != 0 {
		t.Fatalf("FrameRequest: %.1f allocations, want 0", n)
	}
	for _, b := range [][]byte{rsp, chunked} {
		if n := testing.AllocsPerRun(100, func() {
			if n, err := FrameResponse(b); err != nil || n != len(b) {
				t.Fatalf("FrameResponse = %d, %v", n, err)
			}
		}); n != 0 {
			t.Fatalf("FrameResponse(%q...): %.1f allocations, want 0", b[:20], n)
		}
	}
}

// TestBytesOneAllocation: a message is laid out in one buffer of exactly
// its size, its only allocation.
func TestBytesOneAllocation(t *testing.T) {
	req := NewRequest("POST", "/upload", []byte("hello"))
	req.Header.Set("X-Multi", "a")
	req.Header.Add("X-Multi", "b")
	rsp := NewResponse(404, []byte("nope"))
	rsp.Header.Del("Content-Length") // Bytes adds it back
	for name, b := range map[string][]byte{"request": req.Bytes(), "response": rsp.Bytes()} {
		if len(b) != cap(b) {
			t.Fatalf("%s: %d bytes in a buffer of %d", name, len(b), cap(b))
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = rsp.Bytes() }); n != 1 {
		t.Fatalf("Response.Bytes: %.1f allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = req.Bytes() }); n != 1 {
		t.Fatalf("Request.Bytes: %.1f allocations, want 1", n)
	}
}

// TestAppendToReusesCapacity: encoding into a buffer with room for the
// message allocates nothing, and grows a short one exactly once.
func TestAppendToReusesCapacity(t *testing.T) {
	rsp := NewResponse(200, make([]byte, 64<<10))
	buf := make([]byte, 0, len(rsp.Bytes()))
	if n := testing.AllocsPerRun(100, func() { buf = rsp.AppendTo(buf[:0]) }); n != 0 {
		t.Fatalf("AppendTo with capacity: %.1f allocations, want 0", n)
	}
	short := make([]byte, 0, 16)
	if n := testing.AllocsPerRun(100, func() { _ = rsp.AppendTo(short) }); n != 1 {
		t.Fatalf("AppendTo past capacity: %.1f allocations, want 1", n)
	}
}

// TestParseRequestBytesAllocs bounds what a module's parse of the static
// request costs: the Request, its Header, the field slice (twice, as it
// grows to two fields) and one string per line — 7.
func TestParseRequestBytesAllocs(t *testing.T) {
	n := testing.AllocsPerRun(100, func() {
		if req, err := ParseRequestBytes(benchRequest); err != nil || req.Header.Get("Libseal-Check") != "1" {
			t.Fatalf("%+v, %v", req, err)
		}
	})
	if n > 7 {
		t.Fatalf("ParseRequestBytes: %.1f allocations, want at most 7", n)
	}
}
