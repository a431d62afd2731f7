package gitssm

import (
	"fmt"
	"strings"
	"testing"

	"libseal/internal/httpparse"
	"libseal/internal/sqldb"
	"libseal/internal/ssm"
)

// harness replays request/response pairs through the module into a database.
type harness struct {
	t    *testing.T
	db   *sqldb.DB
	mod  *Module
	time int64
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	db := sqldb.New()
	mod := New()
	if _, err := db.Exec(mod.Schema()); err != nil {
		t.Fatal(err)
	}
	return &harness{t: t, db: db, mod: mod}
}

func (h *harness) pair(req *httpparse.Request, rsp *httpparse.Response) {
	h.t.Helper()
	h.time++
	tuples, err := h.mod.HandlePair(&ssm.State{Time: h.time, DB: h.db}, req.Bytes(), rsp.Bytes())
	if err != nil {
		h.t.Fatal(err)
	}
	for _, tu := range tuples {
		ph := strings.TrimSuffix(strings.Repeat("?,", len(tu.Values)), ",")
		if _, err := h.db.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%s)", tu.Table, ph), tu.Values...); err != nil {
			h.t.Fatal(err)
		}
	}
}

func (h *harness) push(repo string, lines ...string) {
	req := httpparse.NewRequest("POST", "/git/"+repo+"/git-receive-pack", []byte(strings.Join(lines, "\n")))
	h.pair(req, httpparse.NewResponse(200, []byte("ok")))
}

func (h *harness) advertise(repo string, refs ...string) {
	var body strings.Builder
	for _, r := range refs {
		body.WriteString("ref " + r + "\n")
	}
	req := httpparse.NewRequest("GET", "/git/"+repo+"/info/refs?service=git-upload-pack", nil)
	h.pair(req, httpparse.NewResponse(200, []byte(body.String())))
}

func (h *harness) violations() map[string]*sqldb.Result {
	h.t.Helper()
	v, err := ssm.CheckInvariants(h.db, h.mod)
	if err != nil {
		h.t.Fatal(err)
	}
	return v
}

func TestCleanHistoryNoViolations(t *testing.T) {
	h := newHarness(t)
	h.push("repo", "create main c1")
	h.push("repo", "update main c2")
	h.push("repo", "create dev d1")
	h.advertise("repo", "main c2", "dev d1")
	if v := h.violations(); len(v) != 0 {
		t.Fatalf("clean history flagged: %v", v)
	}
}

func TestDetectsRollbackAttack(t *testing.T) {
	h := newHarness(t)
	h.push("repo", "create main c1")
	h.push("repo", "update main c2")
	// The server advertises the older commit.
	h.advertise("repo", "main c1")
	v := h.violations()
	if v["git-soundness"] == nil {
		t.Fatalf("rollback not detected: %v", v)
	}
}

func TestDetectsTeleportAttack(t *testing.T) {
	h := newHarness(t)
	h.push("repo", "create main c1")
	h.push("repo", "create dev d1")
	// main is advertised pointing at dev's commit.
	h.advertise("repo", "main d1", "dev d1")
	v := h.violations()
	if v["git-soundness"] == nil {
		t.Fatalf("teleport not detected: %v", v)
	}
}

func TestDetectsReferenceDeletion(t *testing.T) {
	h := newHarness(t)
	h.push("repo", "create main c1")
	h.push("repo", "create dev d1")
	// dev vanishes from the advertisement without a delete update.
	h.advertise("repo", "main c1")
	v := h.violations()
	if v["git-completeness"] == nil {
		t.Fatalf("reference deletion not detected: %v", v)
	}
}

func TestLegitimateDeleteNotFlagged(t *testing.T) {
	h := newHarness(t)
	h.push("repo", "create main c1")
	h.push("repo", "create dev d1")
	h.push("repo", "delete dev d1")
	h.advertise("repo", "main c1")
	if v := h.violations(); len(v) != 0 {
		t.Fatalf("legitimate delete flagged: %v", v)
	}
}

func TestMultipleReposIndependent(t *testing.T) {
	h := newHarness(t)
	h.push("alpha", "create main a1")
	h.push("beta", "create main b1")
	h.push("beta", "update main b2")
	h.advertise("alpha", "main a1")
	h.advertise("beta", "main b2")
	if v := h.violations(); len(v) != 0 {
		t.Fatalf("independent repos flagged: %v", v)
	}
	// Cross-repo confusion is detected.
	h.advertise("alpha", "main b2")
	if v := h.violations(); v["git-soundness"] == nil {
		t.Fatal("cross-repo advertisement not detected")
	}
}

func TestTrimPreservesDetection(t *testing.T) {
	h := newHarness(t)
	h.push("repo", "create main c1")
	h.push("repo", "update main c2")
	h.push("repo", "create dev d1")
	h.advertise("repo", "main c2", "dev d1")
	for _, q := range h.mod.TrimQueries() {
		if _, err := h.db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := h.db.TableRowCount("advertisements"); n != 0 {
		t.Fatalf("advertisements not trimmed: %d", n)
	}
	if n, _ := h.db.TableRowCount("updates"); n != 2 {
		t.Fatalf("updates after trim = %d, want 2 (one per branch)", n)
	}
	// Attacks after trimming are still caught.
	h.advertise("repo", "main c1", "dev d1") // rollback
	if v := h.violations(); v["git-soundness"] == nil {
		t.Fatal("rollback after trim not detected")
	}
}

func TestIgnoresNonGitTraffic(t *testing.T) {
	h := newHarness(t)
	req := httpparse.NewRequest("GET", "/owncloud/join", nil)
	tuples, err := h.mod.HandlePair(&ssm.State{Time: 1, DB: h.db}, req.Bytes(), httpparse.NewResponse(200, nil).Bytes())
	if err != nil || tuples != nil {
		t.Fatalf("non-git traffic produced tuples: %v, %v", tuples, err)
	}
}

func TestIgnoresFailedRequests(t *testing.T) {
	h := newHarness(t)
	req := httpparse.NewRequest("POST", "/git/repo/git-receive-pack", []byte("create main c1"))
	h.pair(req, httpparse.NewResponse(403, nil))
	if n, _ := h.db.TableRowCount("updates"); n != 0 {
		t.Fatal("rejected push was logged")
	}
}

func TestMalformedRequestRejected(t *testing.T) {
	h := newHarness(t)
	_, err := h.mod.HandlePair(&ssm.State{Time: 1}, []byte("garbage"), []byte("more garbage"))
	if err == nil {
		t.Fatal("malformed pair accepted")
	}
}

func TestModuleMetadata(t *testing.T) {
	m := New()
	if m.Name() != "git" {
		t.Fatal("name")
	}
	if len(m.Invariants()) != 2 || len(m.TrimQueries()) != 2 {
		t.Fatal("invariant/trim counts")
	}
}

// TestRepoFromPath pins the path rule: "git", the repository and an
// endpoint of one segment or more, after at most one leading slash.
func TestRepoFromPath(t *testing.T) {
	cases := map[string]string{
		"/git/r/info/refs":        "r info/refs true",
		"/git/r/git-receive-pack": "r git-receive-pack true",
		"git/r/x":                 "r x true",
		"/git//x":                 " x true",
		"/git/r/":                 "r  true",
		"/git/r":                  "  false",
		"/git/":                   "  false",
		"/git":                    "  false",
		"//git/r/x":               "  false",
		"/gitx/r/y":               "  false",
		"/s":                      "  false",
	}
	for path, want := range cases {
		repo, endpoint, ok := repoFromPath(path)
		if got := fmt.Sprint(repo, " ", endpoint, " ", ok); got != want {
			t.Errorf("repoFromPath(%q) = %q, want %q", path, got, want)
		}
	}
}
