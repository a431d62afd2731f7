// Package owncloud implements the collaborative document editing service of
// the paper's evaluation (§6.1): clients within an editing session exchange
// JSON-encoded updates through the server, which assigns the global order;
// departing clients upload snapshots that joining clients receive. Because
// the server must read and modify document content, client-side encryption
// is impossible — exactly the setting LibSEAL audits. Fault injection covers
// lost edits, altered edits and stale snapshots. A per-request processing
// cost models the PHP engine that bottlenecks the real deployment (§6.4).
package owncloud

import (
	"encoding/json"
	"strings"
	"sync"
	"time"

	"libseal/internal/httpparse"
	"libseal/internal/services/apache"
	"libseal/internal/simtime"
	"libseal/internal/ssm/owncloudssm"
)

// document is the server-side session state for one document.
type document struct {
	ops      []string // global op log; seq n is ops[n-1]
	snapshot string   // latest uploaded snapshot
	snapSeq  int64
	members  map[string]bool
}

// Faults injects integrity violations.
type Faults struct {
	// DropEveryNthOp silently discards every Nth relayed op in sync
	// responses while still advertising the full head sequence (lost
	// edits). Zero disables.
	DropEveryNthOp int
	// CorruptOps rewrites relayed op payloads (altered edits).
	CorruptOps bool
	// ServeStaleSnapshot hands joining clients an outdated snapshot.
	ServeStaleSnapshot bool
}

// Server is the ownCloud Documents service.
type Server struct {
	mu   sync.Mutex
	docs map[string]*document
	// staleSnapshots remembers the previous snapshot per doc for the
	// stale-snapshot fault.
	staleSnapshots map[string]string
	staleSeqs      map[string]int64

	faults Faults
	// ProcessingCost models the PHP engine per request.
	ProcessingCost time.Duration
	synced         int64
}

// NewServer creates an empty service.
func NewServer() *Server {
	return &Server{
		docs:           make(map[string]*document),
		staleSnapshots: make(map[string]string),
		staleSeqs:      make(map[string]int64),
	}
}

// SetFaults replaces the fault configuration.
func (s *Server) SetFaults(f Faults) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = f
}

// Handler exposes the service API: POST /owncloud/{join,push,sync,leave}.
func (s *Server) Handler() apache.Handler {
	return apache.HandlerFunc(s.handle)
}

func (s *Server) handle(req *httpparse.Request) *httpparse.Response {
	if s.ProcessingCost > 0 {
		simtime.Burn(s.ProcessingCost)
	}
	path := req.PathOnly()
	if !strings.HasPrefix(path, "/owncloud/") || req.Method != "POST" {
		return httpparse.NewResponse(404, nil)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch strings.TrimPrefix(path, "/owncloud/") {
	case "join":
		var msg owncloudssm.JoinMsg
		if err := json.Unmarshal(req.Body, &msg); err != nil {
			return httpparse.NewResponse(400, nil)
		}
		d := s.doc(msg.Doc)
		d.members[msg.Client] = true
		out := owncloudssm.JoinRsp{Snapshot: d.snapshot, Seq: d.snapSeq}
		if s.faults.ServeStaleSnapshot {
			if old, ok := s.staleSnapshots[msg.Doc]; ok {
				out.Snapshot = old
				out.Seq = s.staleSeqs[msg.Doc]
			}
		}
		return jsonRsp(out)

	case "push":
		var msg owncloudssm.PushMsg
		if err := json.Unmarshal(req.Body, &msg); err != nil {
			return httpparse.NewResponse(400, nil)
		}
		d := s.doc(msg.Doc)
		d.ops = append(d.ops, msg.Ops...)
		return jsonRsp(owncloudssm.PushRsp{Seq: int64(len(d.ops))})

	case "sync":
		var msg owncloudssm.SyncMsg
		if err := json.Unmarshal(req.Body, &msg); err != nil {
			return httpparse.NewResponse(400, nil)
		}
		d := s.doc(msg.Doc)
		head := int64(len(d.ops))
		var ops []string
		for seq := msg.Since + 1; seq <= head; seq++ {
			op := d.ops[seq-1]
			s.synced++
			if n := s.faults.DropEveryNthOp; n > 0 && s.synced%int64(n) == 0 {
				continue // lost edit: op dropped, head still advertised
			}
			if s.faults.CorruptOps {
				op = "corrupted:" + op
			}
			ops = append(ops, op)
		}
		return jsonRsp(owncloudssm.SyncRsp{Ops: ops, Seq: head})

	case "leave":
		var msg owncloudssm.LeaveMsg
		if err := json.Unmarshal(req.Body, &msg); err != nil {
			return httpparse.NewResponse(400, nil)
		}
		d := s.doc(msg.Doc)
		// Remember the previous snapshot for the stale-snapshot fault.
		if d.snapshot != "" {
			s.staleSnapshots[msg.Doc] = d.snapshot
			s.staleSeqs[msg.Doc] = d.snapSeq
		}
		d.snapshot = msg.Snapshot
		d.snapSeq = msg.Seq
		delete(d.members, msg.Client)
		return jsonRsp(map[string]int{"ok": 1})
	}
	return httpparse.NewResponse(404, nil)
}

func (s *Server) doc(name string) *document {
	d, ok := s.docs[name]
	if !ok {
		d = &document{members: make(map[string]bool)}
		s.docs[name] = d
	}
	return d
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
