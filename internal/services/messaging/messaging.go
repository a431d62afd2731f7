// Package messaging implements an XMPP-style instant messaging service, the
// fourth application scenario of the paper's motivation (§2.2): clients
// exchange messages relayed through a central provider, whose faults or bugs
// may drop, modify or misdeliver them (§2.2 cites a jabberd CVE). Fault
// injection covers all three failure classes so the messaging SSM can be
// exercised end to end.
package messaging

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"libseal/internal/httpparse"
	"libseal/internal/services/apache"
	"libseal/internal/ssm/messagingssm"
)

// message is one stored mailbox entry.
type message struct {
	id     string
	from   string
	to     string
	body   string
	seq    int64
	hidden bool // dropped by fault injection
}

// Faults injects integrity violations.
type Faults struct {
	// DropEveryNth silently drops every Nth delivered message while the
	// inbox response still advertises the full head sequence.
	DropEveryNth int
	// CorruptBodies rewrites message bodies on delivery.
	CorruptBodies bool
	// MisdeliverTo, when set, reroutes deliveries of other users' messages
	// into this user's inbox responses.
	MisdeliverTo string
}

// Server is the messaging service.
type Server struct {
	mu        sync.Mutex
	mailboxes map[string][]*message
	nextID    int64
	delivered int64
	faults    Faults
	// ProcessingCost models per-message server work.
	ProcessingCost time.Duration
}

// NewServer creates an empty service.
func NewServer() *Server {
	return &Server{mailboxes: make(map[string][]*message)}
}

// SetFaults replaces the fault configuration.
func (s *Server) SetFaults(f Faults) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = f
}

// Handler exposes the API: POST /messaging/{send,inbox}.
func (s *Server) Handler() apache.Handler {
	return apache.HandlerFunc(s.handle)
}

func (s *Server) handle(req *httpparse.Request) *httpparse.Response {
	if s.ProcessingCost > 0 {
		start := time.Now()
		for time.Since(start) < s.ProcessingCost {
		}
	}
	path := req.PathOnly()
	if !strings.HasPrefix(path, "/messaging/") || req.Method != "POST" {
		return httpparse.NewResponse(404, nil)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch strings.TrimPrefix(path, "/messaging/") {
	case "send":
		var msg messagingssm.SendMsg
		if err := json.Unmarshal(req.Body, &msg); err != nil {
			return httpparse.NewResponse(400, nil)
		}
		s.nextID++
		box := s.mailboxes[msg.To]
		m := &message{
			id:   fmt.Sprintf("m-%06d", s.nextID),
			from: msg.From, to: msg.To, body: msg.Body,
			seq: int64(len(box)) + 1,
		}
		s.mailboxes[msg.To] = append(box, m)
		return jsonRsp(messagingssm.SendAck{ID: m.id, Seq: m.seq})

	case "inbox":
		var msg messagingssm.InboxMsg
		if err := json.Unmarshal(req.Body, &msg); err != nil {
			return httpparse.NewResponse(400, nil)
		}
		box := s.mailboxes[msg.User]
		out := messagingssm.InboxRsp{Seq: int64(len(box))}
		for _, m := range box {
			if m.seq <= msg.Since {
				continue
			}
			s.delivered++
			if n := s.faults.DropEveryNth; n > 0 && s.delivered%int64(n) == 0 {
				continue // dropped message; head sequence still advertised
			}
			body := m.body
			if s.faults.CorruptBodies {
				body = "corrupted:" + body
			}
			out.Messages = append(out.Messages, messagingssm.Delivered{
				ID: m.id, From: m.from, To: m.to, Body: body,
			})
		}
		if victim := s.faults.MisdeliverTo; victim == msg.User {
			// Leak another user's most recent message into this inbox.
			for user, other := range s.mailboxes {
				if user == msg.User || len(other) == 0 {
					continue
				}
				m := other[len(other)-1]
				out.Messages = append(out.Messages, messagingssm.Delivered{
					ID: m.id, From: m.from, To: m.to, Body: m.body,
				})
				break
			}
		}
		return jsonRsp(out)
	}
	return httpparse.NewResponse(404, nil)
}

func jsonRsp(v any) *httpparse.Response {
	body, err := json.Marshal(v)
	if err != nil {
		return httpparse.NewResponse(500, nil)
	}
	rsp := httpparse.NewResponse(200, body)
	rsp.Header.Set("Content-Type", "application/json")
	return rsp
}
