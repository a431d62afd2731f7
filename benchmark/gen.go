package main

import (
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"libseal"
	"libseal/internal/httpparse"
)

// kind classifies a request for validation and for the latency tables.
type kind uint8

const (
	kPush kind = iota
	kRefs
	kSmall
	kLarge
)

const (
	smallSize = 1 << 10
	largeSize = 64 << 10
	// reconnectEvery is how often a static_mix client drops its connection
	// and pays a handshake.
	reconnectEvery = 64
	// clientCheckEvery is how often git_check's client 0 asks for an
	// in-band invariant check.
	clientCheckEvery = 25
)

// request is one generated request: the bytes the program receives, plus
// what the harness needs to validate the reply.
type request struct {
	raw       []byte
	kind      kind
	check     bool // carries Libseal-Check; the reply must say "ok"
	reconnect bool // close and re-dial first, timing handshake + request
	repo      string
	branch    string
	cid       string
}

// generator produces one client's request stream from (workload, seed,
// client, clients). It also holds the client's model of its own repos: each
// client pushes only to repos it owns, so after an acknowledged push the
// model is what info/refs must return.
type generator struct {
	workload string
	rng      *rand.Rand
	client   int
	seq      uint64
	repos    []string
	branches []string
	heads    map[string]map[string]string // repo -> branch -> cid
}

// gitShape gives the repo and branch counts of a git workload: git_push
// keeps the log small (2 repos x 4 branches per client, no trims), git_check
// spreads 64 x 8 = 512 retained rows over all clients.
func gitShape(workload string, client, clients int) (repos, branches []string) {
	nRepos, nBranches, total := 2, 4, false
	if workload == "git_check" {
		nRepos, nBranches, total = 64, 8, true
	}
	for r := 0; r < nRepos; r++ {
		if total && r%clients != client {
			continue
		}
		repos = append(repos, fmt.Sprintf("c%d-r%d", client, r))
	}
	for b := 0; b < nBranches; b++ {
		branches = append(branches, fmt.Sprintf("b%d", b))
	}
	return repos, branches
}

func newGenerator(workload string, seed int64, client, clients int) *generator {
	g := &generator{
		workload: workload,
		rng:      rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
		client:   client,
		heads:    map[string]map[string]string{},
	}
	if workload != "static_mix" {
		g.repos, g.branches = gitShape(workload, client, clients)
	}
	return g
}

// build serialises a request, stamping the request id header.
func (g *generator) build(r *request, method, path string, body []byte) {
	g.seq++
	req := httpparse.NewRequest(method, path, body)
	req.Header.Set(reqHeader, strconv.FormatUint(uint64(g.client+1)<<40|g.seq, 10))
	if r.check {
		req.Header.Set(libseal.CheckHeader, "1")
	}
	r.raw = req.Bytes()
}

func (g *generator) freshCID() string {
	var b [20]byte
	g.rng.Read(b[:])
	return hex.EncodeToString(b[:])
}

func (g *generator) push(verb, repo, branch string, check bool) request {
	r := request{kind: kPush, repo: repo, branch: branch, cid: g.freshCID(), check: check}
	g.build(&r, "POST", "/git/"+repo+"/git-receive-pack", []byte(verb+" "+branch+" "+r.cid))
	return r
}

// prefill returns the set-up requests of the workload: git_check creates
// every branch once, so the retained row count is 512 from the first check.
func (g *generator) prefill() []request {
	if g.workload != "git_check" {
		return nil
	}
	var out []request
	for _, repo := range g.repos {
		for _, branch := range g.branches {
			out = append(out, g.push("create", repo, branch, false))
		}
	}
	return out
}

// next returns the client's next measured request.
func (g *generator) next() request {
	if g.workload == "static_mix" {
		i := g.seq
		r := request{kind: kSmall, reconnect: i > 0 && i%reconnectEvery == 0}
		path := "/s"
		if i%4 == 3 {
			r.kind, path = kLarge, "/l"
		}
		g.build(&r, "GET", path, nil)
		return r
	}
	check := g.workload == "git_check" && g.client == 0 && (g.seq+1)%clientCheckEvery == 0
	repo := g.repos[g.rng.Intn(len(g.repos))]
	if g.rng.Intn(10) == 0 {
		r := request{kind: kRefs, repo: repo, check: check}
		g.build(&r, "GET", "/git/"+repo+"/info/refs", nil)
		return r
	}
	return g.push("update", repo, g.branches[g.rng.Intn(len(g.branches))], check)
}

// acked folds an acknowledged push into the model.
func (g *generator) acked(r request) {
	if r.kind != kPush {
		return
	}
	if g.heads[r.repo] == nil {
		g.heads[r.repo] = map[string]string{}
	}
	g.heads[r.repo][r.branch] = r.cid
}

// wantRefs is the advertisement the model predicts for repo.
func (g *generator) wantRefs(repo string) string {
	heads := g.heads[repo]
	names := make([]string, 0, len(heads))
	for b := range heads {
		names = append(names, b)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, b := range names {
		sb.WriteString("ref " + b + " " + heads[b] + "\n")
	}
	return sb.String()
}

// staticBody is the content served at /s and /l. It is part of the pinned
// deployment, not of the seeded input.
func staticBody(size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte('a' + (i*7+i/251)%26)
	}
	return b
}

var (
	smallBody = staticBody(smallSize)
	largeBody = staticBody(largeSize)
	smallCRC  = crc32.ChecksumIEEE(smallBody)
	largeCRC  = crc32.ChecksumIEEE(largeBody)
)

// validate checks a 200 reply's content against what r must produce. A
// mismatch is a correctness failure of the system, not a failed request.
func (g *generator) validate(r request, rsp *httpparse.Response) error {
	switch r.kind {
	case kPush:
		if string(rsp.Body) != "ok" {
			return fmt.Errorf("push to %s/%s: body %q, want \"ok\"", r.repo, r.branch, rsp.Body)
		}
	case kRefs:
		if want := g.wantRefs(r.repo); string(rsp.Body) != want {
			return fmt.Errorf("info/refs of %s: got %q, want %q (the client's acknowledged pushes)", r.repo, rsp.Body, want)
		}
	case kSmall, kLarge:
		size, sum := smallSize, smallCRC
		if r.kind == kLarge {
			size, sum = largeSize, largeCRC
		}
		if len(rsp.Body) != size || crc32.ChecksumIEEE(rsp.Body) != sum {
			return fmt.Errorf("static body: %d bytes crc %08x, want %d bytes crc %08x",
				len(rsp.Body), crc32.ChecksumIEEE(rsp.Body), size, sum)
		}
	}
	if r.check {
		if got := rsp.Header.Get(libseal.CheckResultHeader); got != "ok" {
			return fmt.Errorf("%s: %q, want \"ok\"", libseal.CheckResultHeader, got)
		}
	}
	return nil
}
