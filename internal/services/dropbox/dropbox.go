// Package dropbox implements the block-based file storage service of the
// paper's evaluation (§6.1): files are split into 4 MB blocks identified by
// hashes; commit_batch messages upload new file metadata (the blocklist) and
// list requests return each account's current files. Fault injection covers
// blocklist corruption, stale metadata and silently lost files. The real
// Dropbox sits across a WAN; the evaluation reaches it through a Squid proxy
// over a simulated 76 ms link (§6.4).
package dropbox

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"time"

	"libseal/internal/httpparse"
	"libseal/internal/services/apache"
	"libseal/internal/simtime"
	"libseal/internal/ssm/dropboxssm"
)

// BlockSize is Dropbox's 4 MB block granularity.
const BlockSize = 4 << 20

// fileMeta is the stored metadata of one file.
type fileMeta struct {
	blocklist string
	size      int64
}

// Faults injects integrity violations.
type Faults struct {
	// CorruptBlocklistOf rewrites the returned blocklist for these files.
	CorruptBlocklistOf map[string]bool
	// ServeStaleFor returns the previous blocklist for these files.
	ServeStaleFor map[string]bool
	// HideFiles omits these files from list responses.
	HideFiles map[string]bool
}

// Server is the Dropbox-like service.
type Server struct {
	mu       sync.Mutex
	accounts map[string]map[string]*fileMeta // account -> file -> meta
	previous map[string]map[string]string    // account -> file -> prior blocklist
	faults   Faults
	// ProcessingCost models server-side metadata work per request.
	ProcessingCost time.Duration
}

// NewServer creates an empty service.
func NewServer() *Server {
	return &Server{
		accounts: make(map[string]map[string]*fileMeta),
		previous: make(map[string]map[string]string),
		faults: Faults{
			CorruptBlocklistOf: make(map[string]bool),
			ServeStaleFor:      make(map[string]bool),
			HideFiles:          make(map[string]bool),
		},
	}
}

// InjectBlocklistCorruption corrupts the returned blocklist of a file.
func (s *Server) InjectBlocklistCorruption(file string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults.CorruptBlocklistOf[file] = true
}

// ClearFaults restores honest behaviour.
func (s *Server) ClearFaults() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = Faults{
		CorruptBlocklistOf: make(map[string]bool),
		ServeStaleFor:      make(map[string]bool),
		HideFiles:          make(map[string]bool),
	}
}

// InjectFileLoss hides a file from list responses.
func (s *Server) InjectFileLoss(file string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults.HideFiles[file] = true
}

// Blocklist computes the canonical blocklist of a file's content: one
// SHA-256 per 4 MB block, comma-joined. Exported for workload generators.
func Blocklist(content []byte) string {
	if len(content) == 0 {
		return ""
	}
	var hashes []string
	for off := 0; off < len(content); off += BlockSize {
		end := off + BlockSize
		if end > len(content) {
			end = len(content)
		}
		h := sha256.Sum256(content[off:end])
		hashes = append(hashes, hex.EncodeToString(h[:8]))
	}
	return strings.Join(hashes, ",")
}

// Handler exposes the API: POST /dropbox/commit_batch, GET /dropbox/list.
func (s *Server) Handler() apache.Handler {
	return apache.HandlerFunc(s.handle)
}

func (s *Server) handle(req *httpparse.Request) *httpparse.Response {
	if s.ProcessingCost > 0 {
		simtime.Burn(s.ProcessingCost)
	}
	path := req.PathOnly()
	if !strings.HasPrefix(path, "/dropbox/") {
		return httpparse.NewResponse(404, nil)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch strings.TrimPrefix(path, "/dropbox/") {
	case "commit_batch":
		var msg dropboxssm.CommitBatchMsg
		if err := json.Unmarshal(req.Body, &msg); err != nil {
			return httpparse.NewResponse(400, nil)
		}
		files := s.accounts[msg.Account]
		if files == nil {
			files = make(map[string]*fileMeta)
			s.accounts[msg.Account] = files
		}
		prev := s.previous[msg.Account]
		if prev == nil {
			prev = make(map[string]string)
			s.previous[msg.Account] = prev
		}
		for _, c := range msg.Commits {
			if old, ok := files[c.File]; ok {
				prev[c.File] = old.blocklist
			}
			if c.Size == -1 {
				delete(files, c.File)
				continue
			}
			files[c.File] = &fileMeta{blocklist: c.Blocklist, size: c.Size}
		}
		return jsonRsp(map[string]int{"ok": 1})

	case "list":
		account := req.Query("account")
		files := s.accounts[account]
		var names []string
		for name := range files {
			if s.faults.HideFiles[name] {
				continue
			}
			names = append(names, name)
		}
		sort.Strings(names)
		out := dropboxssm.ListRsp{}
		for _, name := range names {
			meta := files[name]
			blocks := meta.blocklist
			if s.faults.ServeStaleFor[name] {
				if old, ok := s.previous[account][name]; ok {
					blocks = old
				}
			}
			if s.faults.CorruptBlocklistOf[name] {
				blocks = "deadbeef" + blocks
			}
			out.Files = append(out.Files, dropboxssm.FileCommit{
				File: name, Blocklist: blocks, Size: meta.size,
			})
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
