// Package gitserver implements the Git service of the paper's evaluation: an
// in-memory Git object store (commits forming a hash chain, branch and tag
// pointers) behind a smart-HTTP-style interface, plus fault injection for
// the teleport, rollback and reference-deletion attacks of Torres-Arias et
// al. (§6.1) that Git's own hash chain cannot detect. A workload generator
// replays synthetic commit histories like the paper's replay of real
// repositories (§6.4).
package gitserver

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"libseal/internal/httpparse"
	"libseal/internal/services/apache"
	"libseal/internal/simtime"
)

// Commit is one node of a repository's commit graph. Its ID is the hash of
// its content and parent, giving Git's integrity chain for file contents.
type Commit struct {
	ID      string
	Parent  string
	Message string
	Tree    string // stands in for the content snapshot
}

// Repo is one repository: a commit store plus branch/tag pointers.
type Repo struct {
	Commits  map[string]*Commit
	Branches map[string]string // name -> commit ID
	Tags     map[string]string
}

func newRepo() *Repo {
	return &Repo{
		Commits:  make(map[string]*Commit),
		Branches: make(map[string]string),
		Tags:     make(map[string]string),
	}
}

// commitID hashes a commit, chaining the parent ID.
func commitID(parent, message, tree string) string {
	h := sha256.Sum256([]byte(parent + "\x00" + message + "\x00" + tree))
	return hex.EncodeToString(h[:20]) // git-sized 40-hex-char ID
}

// Faults injects the integrity attacks of §6.1 into advertisements. The
// stored repository is untouched — exactly the class of violation that
// clients cannot see without LibSEAL.
type Faults struct {
	// RollbackRefs maps "repo/branch" to an older commit ID to advertise.
	RollbackRefs map[string]string
	// TeleportRefs maps "repo/branch" to a commit ID from another branch.
	TeleportRefs map[string]string
	// HiddenRefs lists "repo/branch" references omitted from
	// advertisements.
	HiddenRefs map[string]bool
}

// Server is the Git service.
type Server struct {
	mu     sync.Mutex
	repos  map[string]*Repo
	faults Faults
	// ProcessingCost models the server-side pack/object work per request.
	ProcessingCost time.Duration
}

// NewServer creates an empty Git service.
func NewServer() *Server {
	return &Server{
		repos: make(map[string]*Repo),
		faults: Faults{
			RollbackRefs: make(map[string]string),
			TeleportRefs: make(map[string]string),
			HiddenRefs:   make(map[string]bool),
		},
	}
}

// InjectRollback makes future advertisements of repo/branch return the
// current commit's ancestor (or the given ID).
func (s *Server) InjectRollback(repo, branch, oldID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults.RollbackRefs[repo+"/"+branch] = oldID
}

// InjectTeleport makes future advertisements of repo/branch point at the
// head of another branch.
func (s *Server) InjectTeleport(repo, branch, foreignID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults.TeleportRefs[repo+"/"+branch] = foreignID
}

// InjectRefDeletion hides repo/branch from future advertisements.
func (s *Server) InjectRefDeletion(repo, branch string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults.HiddenRefs[repo+"/"+branch] = true
}

// ClearFaults restores honest behaviour.
func (s *Server) ClearFaults() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = Faults{
		RollbackRefs: make(map[string]string),
		TeleportRefs: make(map[string]string),
		HiddenRefs:   make(map[string]bool),
	}
}

// Handler exposes the service over the smart-HTTP-style protocol:
//
//	GET  /git/<repo>/info/refs          advertisement: "ref <branch> <cid>\n"*
//	POST /git/<repo>/git-receive-pack   push: "<create|update|delete> <branch> <cid>\n"*
func (s *Server) Handler() apache.Handler {
	return apache.HandlerFunc(s.handle)
}

func (s *Server) handle(req *httpparse.Request) *httpparse.Response {
	if s.ProcessingCost > 0 {
		simtime.Burn(s.ProcessingCost)
	}
	parts := strings.Split(strings.TrimPrefix(req.PathOnly(), "/"), "/")
	if len(parts) < 3 || parts[0] != "git" {
		return httpparse.NewResponse(404, []byte("not a git endpoint"))
	}
	repoName := parts[1]
	endpoint := strings.Join(parts[2:], "/")
	switch {
	case req.Method == "GET" && strings.HasPrefix(endpoint, "info/refs"):
		return s.advertise(repoName)
	case req.Method == "POST" && endpoint == "git-receive-pack":
		return s.receivePack(repoName, string(req.Body))
	}
	return httpparse.NewResponse(404, nil)
}

// advertise returns the (possibly maliciously altered) ref advertisement.
func (s *Server) advertise(repoName string) *httpparse.Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.repos[repoName]
	if !ok {
		return httpparse.NewResponse(200, nil) // empty repo
	}
	type ref struct{ name, id string }
	var refs []ref
	for branch, id := range r.Branches {
		key := repoName + "/" + branch
		if s.faults.HiddenRefs[key] {
			continue
		}
		if old, ok := s.faults.RollbackRefs[key]; ok {
			id = old
		}
		if foreign, ok := s.faults.TeleportRefs[key]; ok {
			id = foreign
		}
		refs = append(refs, ref{branch, id})
	}
	for tag, id := range r.Tags {
		key := repoName + "/" + tag
		if s.faults.HiddenRefs[key] {
			continue
		}
		refs = append(refs, ref{tag, id})
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].name < refs[j].name })
	var body strings.Builder
	for _, rf := range refs {
		fmt.Fprintf(&body, "ref %s %s\n", rf.name, rf.id)
	}
	return httpparse.NewResponse(200, []byte(body.String()))
}

// receivePack applies push commands and stores the new commits.
func (s *Server) receivePack(repoName, body string) *httpparse.Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.repos[repoName]
	if !ok {
		r = newRepo()
		s.repos[repoName] = r
	}
	for _, line := range strings.Split(body, "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			continue
		}
		typ, branch, cid := f[0], f[1], f[2]
		switch typ {
		case "create", "update":
			parent := r.Branches[branch]
			r.Commits[cid] = &Commit{ID: cid, Parent: parent}
			r.Branches[branch] = cid
		case "delete":
			delete(r.Branches, branch)
		}
	}
	return httpparse.NewResponse(200, []byte("ok"))
}

// HistoryGenerator produces a synthetic commit history for one repository:
// a deterministic stream of pushes and fetches shaped like replaying a real
// repository's first few hundred commits (§6.4).
type HistoryGenerator struct {
	Repo     string
	rng      *rand.Rand
	branches []string
	heads    map[string]string
	commits  int
}

// NewHistoryGenerator creates a generator with a deterministic seed.
func NewHistoryGenerator(repo string, seed int64) *HistoryGenerator {
	return &HistoryGenerator{
		Repo:     repo,
		rng:      rand.New(rand.NewSource(seed)),
		branches: []string{"master"},
		heads:    map[string]string{},
	}
}

// PushLines returns the body of the next push request: usually one commit to
// an existing branch, occasionally a new branch or a deletion.
func (g *HistoryGenerator) PushLines() string {
	g.commits++
	switch {
	case g.rng.Intn(20) == 0: // new feature branch
		name := fmt.Sprintf("feature-%d", g.commits)
		g.branches = append(g.branches, name)
		id := commitID(g.heads["master"], fmt.Sprintf("branch %s", name), fmt.Sprintf("tree%d", g.commits))
		g.heads[name] = id
		return fmt.Sprintf("create %s %s", name, id)
	case len(g.branches) > 3 && g.rng.Intn(25) == 0: // delete an old branch
		idx := 1 + g.rng.Intn(len(g.branches)-1)
		name := g.branches[idx]
		g.branches = append(g.branches[:idx], g.branches[idx+1:]...)
		id := g.heads[name]
		delete(g.heads, name)
		return fmt.Sprintf("delete %s %s", name, id)
	default:
		name := g.branches[g.rng.Intn(len(g.branches))]
		id := commitID(g.heads[name], fmt.Sprintf("commit %d", g.commits), fmt.Sprintf("tree%d", g.commits))
		g.heads[name] = id
		return fmt.Sprintf("update %s %s", name, id)
	}
}

// Heads returns the generator's view of the branch heads (the client-side
// ground truth used to validate advertisements).
func (g *HistoryGenerator) Heads() map[string]string {
	out := make(map[string]string, len(g.heads))
	for k, v := range g.heads {
		out[k] = v
	}
	return out
}
