package httpparse

import (
	"bytes"
	"testing"
)

// writeCounter records every Write it is given.
type writeCounter struct{ writes [][]byte }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, bytes.Clone(p))
	return len(p), nil
}

// TestEncodeWritesOnce: Encode hands the whole message to the writer in one
// Write, never an empty one. On a connection one Write is one packet, and a
// reverse proxy's backend may have replied and closed at the blank line of a
// message without a body, so no further write may follow it.
func TestEncodeWritesOnce(t *testing.T) {
	h := NewHeader()
	h.Set("Transfer-Encoding", "chunked")
	body := []byte("3\r\nabc\r\n0\r\n\r\n")
	reqs := map[string]*Request{
		"request with body":    NewRequest("POST", "/x", []byte("payload")),
		"request without body": NewRequest("GET", "/x", nil),
		"chunked request":      {Method: "POST", Path: "/c", Proto: "HTTP/1.1", Header: h, Body: body},
	}
	for name, req := range reqs {
		var w writeCounter
		if err := req.Encode(&w); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(w.writes) != 1 || len(w.writes[0]) == 0 || !bytes.Equal(w.writes[0], req.Bytes()) {
			t.Fatalf("%s: writes %q, want one: %q", name, w.writes, req.Bytes())
		}
	}
	for name, rsp := range encodeResponses() {
		var w writeCounter
		if err := rsp.Encode(&w); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(w.writes) != 1 || len(w.writes[0]) == 0 || !bytes.Equal(w.writes[0], rsp.Bytes()) {
			t.Fatalf("%s: writes %q, want one: %q", name, w.writes, rsp.Bytes())
		}
	}
}

// encodeResponses are the responses TestEncodeWritesOnce encodes.
func encodeResponses() map[string]*Response {
	h := NewHeader()
	h.Set("Transfer-Encoding", "chunked")
	return map[string]*Response{
		"response with body":    NewResponse(200, []byte("hi")),
		"response without body": NewResponse(204, nil),
		"chunked response":      {Proto: "HTTP/1.1", Status: 200, Header: h, Body: []byte("3\r\nabc\r\n0\r\n\r\n")},
	}
}

// TestAppendToMatchesBytes: AppendTo writes what Bytes does, after whatever
// the buffer already holds, for the encode test's responses and every
// response the differential and framing corpora parse to (an empty Reason,
// a bare-LF message, a repeated Content-Length field among them).
func TestAppendToMatchesBytes(t *testing.T) {
	rsps := encodeResponses()
	for _, corpus := range [][][]byte{differentialCorpus(), framingCorpus()} {
		for _, msg := range corpus {
			if rsp, _, err := ConsumeResponse(msg); err == nil {
				rsps[string(clip(msg))] = rsp
			}
		}
	}
	prefix := []byte("prefix|")
	for name, rsp := range rsps {
		want := rsp.Bytes()
		if got := rsp.AppendTo(nil); !bytes.Equal(got, want) {
			t.Fatalf("%q: AppendTo(nil) = %q, want %q", name, got, want)
		}
		for _, b := range [][]byte{bytes.Clone(prefix), append(make([]byte, 0, 1024), prefix...)} {
			got := rsp.AppendTo(b)
			if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("%q: AppendTo(%q) = %q", name, prefix, got)
			}
		}
	}
	if len(rsps) < 10 {
		t.Fatalf("only %d responses parsed from the corpora", len(rsps))
	}
}
