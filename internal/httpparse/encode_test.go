package httpparse

import (
	"errors"
	"testing"
)

// closedAfterMessage fails any write once a complete body-less message has
// gone out, like a peer that answered and closed at the blank line.
type closedAfterMessage struct{ ended bool }

func (w *closedAfterMessage) Write(p []byte) (int, error) {
	if w.ended {
		return 0, errors.New("write on closed pipe")
	}
	w.ended = string(p) == "\r\n"
	return len(p), nil
}

// TestEncodeWritesNothingAfterBodylessMessage: the blank line ends a message
// without a body, and a reverse proxy's backend may have replied and closed
// by the time a further, empty, write would reach it.
func TestEncodeWritesNothingAfterBodylessMessage(t *testing.T) {
	if err := NewRequest("GET", "/x", nil).Encode(&closedAfterMessage{}); err != nil {
		t.Fatalf("request: %v", err)
	}
	if err := NewResponse(204, nil).Encode(&closedAfterMessage{}); err != nil {
		t.Fatalf("response: %v", err)
	}
}
