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
	chunked := func(h *Header) *Header {
		h.Set("Transfer-Encoding", "chunked")
		return h
	}
	body := []byte("3\r\nabc\r\n0\r\n\r\n")
	reqs := map[string]*Request{
		"request with body":    NewRequest("POST", "/x", []byte("payload")),
		"request without body": NewRequest("GET", "/x", nil),
		"chunked request":      {Method: "POST", Path: "/c", Proto: "HTTP/1.1", Header: chunked(NewHeader()), Body: body},
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
	rsps := map[string]*Response{
		"response with body":    NewResponse(200, []byte("hi")),
		"response without body": NewResponse(204, nil),
		"chunked response":      {Proto: "HTTP/1.1", Status: 200, Header: chunked(NewHeader()), Body: body},
	}
	for name, rsp := range rsps {
		var w writeCounter
		if err := rsp.Encode(&w); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(w.writes) != 1 || len(w.writes[0]) == 0 || !bytes.Equal(w.writes[0], rsp.Bytes()) {
			t.Fatalf("%s: writes %q, want one: %q", name, w.writes, rsp.Bytes())
		}
	}
}
