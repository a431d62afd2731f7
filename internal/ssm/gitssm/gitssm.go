// Package gitssm is the LibSEAL service-specific module for the Git
// smart-HTTP service (§6.1, §6.2). It records all branch/tag pointer updates
// pushed by clients and all pointer advertisements returned by the server,
// and detects the teleport, rollback and reference-deletion attacks of
// Torres-Arias et al. that Git's own hash chain does not prevent.
package gitssm

import (
	"fmt"
	"strings"

	"libseal/internal/httpparse"
	"libseal/internal/ssm"
)

// Module implements ssm.Module for Git.
type Module struct{}

// New returns the Git SSM.
func New() *Module { return &Module{} }

// Name implements ssm.Module.
func (*Module) Name() string { return "git" }

// Schema implements ssm.Module: the two relations of §3.1 plus the
// branchcnt view of §6.2 used by the completeness invariant.
func (*Module) Schema() string {
	return `
CREATE TABLE updates (time INTEGER, repo TEXT, branch TEXT, cid TEXT, type TEXT);
CREATE TABLE advertisements (time INTEGER, repo TEXT, branch TEXT, cid TEXT);
CREATE VIEW branchcnt AS
	SELECT DISTINCT a.time,a.repo,COUNT(u.branch) AS cnt
	FROM advertisements a
	JOIN updates u ON u.time < a.time AND u.repo = a.repo
	WHERE u.type != 'delete' AND u.time = (SELECT MAX(time)
		FROM updates WHERE branch = u.branch
		AND repo = u.repo AND time < a.time) GROUP BY
		a.time,a.repo,a.branch;
`
}

// repoFromPath extracts the repository from /git/<repo>/<endpoint>.
func repoFromPath(path string) (repo, endpoint string, ok bool) {
	rest, ok := strings.CutPrefix(strings.TrimPrefix(path, "/"), "git/")
	if ok {
		repo, endpoint, ok = strings.Cut(rest, "/")
	}
	if !ok {
		return "", "", false
	}
	return repo, endpoint, true
}

// HandlePair implements ssm.Module. It understands the simplified smart-HTTP
// wire protocol of the simulated Git service:
//
//	GET  /git/<repo>/info/refs           response: "ref <branch> <cid>\n"*
//	POST /git/<repo>/git-receive-pack    request:  "<type> <branch> <cid>\n"*
//
// where <type> is update, create or delete.
func (m *Module) HandlePair(st *ssm.State, reqRaw, rspRaw []byte) ([]ssm.Tuple, error) {
	req, err := httpparse.ParseRequestBytes(reqRaw)
	if err != nil {
		return nil, fmt.Errorf("gitssm: request: %w", err)
	}
	repo, endpoint, ok := repoFromPath(req.PathOnly())
	if !ok {
		return nil, nil // not a Git request
	}
	rsp, err := httpparse.ParseResponseBytes(rspRaw)
	if err != nil {
		return nil, fmt.Errorf("gitssm: response: %w", err)
	}
	if rsp.Status != 200 {
		return nil, nil // failed operations do not change service state
	}

	switch {
	case req.Method == "GET" && strings.HasPrefix(endpoint, "info/refs"):
		// Advertisement: log every (branch, cid) the server returned.
		var tuples []ssm.Tuple
		for _, line := range strings.Split(string(rsp.Body), "\n") {
			fields := strings.Fields(line)
			if len(fields) != 3 || fields[0] != "ref" {
				continue
			}
			tuples = append(tuples, ssm.Tuple{
				Table:  "advertisements",
				Values: []any{st.Time, repo, fields[1], fields[2]},
			})
		}
		return tuples, nil

	case req.Method == "POST" && endpoint == "git-receive-pack":
		// Push: log every ref update command the client sent.
		var tuples []ssm.Tuple
		for _, line := range strings.Split(string(req.Body), "\n") {
			fields := strings.Fields(line)
			if len(fields) != 3 {
				continue
			}
			typ := fields[0]
			if typ != "update" && typ != "create" && typ != "delete" {
				continue
			}
			tuples = append(tuples, ssm.Tuple{
				Table:  "updates",
				Values: []any{st.Time, repo, fields[1], fields[2], typ},
			})
		}
		return tuples, nil
	}
	return nil, nil
}

// SoundnessSQL is the soundness invariant of §6.2, verbatim from the paper:
// every advertisement must correspond to the most recent update for the
// (repo, branch, cid) triple. Violations indicate rollback or teleport
// attacks.
const SoundnessSQL = `SELECT * FROM advertisements a WHERE cid != (
	SELECT u.cid FROM updates u WHERE u.repo = a.repo AND
		u.branch = a.branch AND u.time < a.time ORDER BY
		u.time DESC LIMIT 1)`

// CompletenessSQL is the completeness invariant of §1/§6.2, verbatim: when
// an advertisement happens, all live branches must be advertised.
// Violations indicate reference-deletion attacks.
const CompletenessSQL = `SELECT time, repo FROM advertisements
	NATURAL JOIN branchcnt
	GROUP BY time, repo, cnt HAVING COUNT(branch) != cnt`

// Invariants implements ssm.Module.
func (*Module) Invariants() []ssm.Invariant {
	return []ssm.Invariant{
		{
			Name:        "git-soundness",
			Kind:        "soundness",
			Description: "advertised commit IDs must match the most recent pushed update (detects rollback and teleport)",
			SQL:         SoundnessSQL,
		},
		{
			Name:        "git-completeness",
			Kind:        "completeness",
			Description: "every live branch must be advertised (detects reference deletion)",
			SQL:         CompletenessSQL,
		},
	}
}

// TrimQueries implements ssm.Module, verbatim from §5.1: advertisements are
// checked once; only the most recent update per branch is needed afterwards.
func (*Module) TrimQueries() []string {
	return []string{
		`DELETE FROM advertisements`,
		`DELETE FROM updates WHERE time NOT IN
	(SELECT MAX(time) FROM updates GROUP BY repo, branch)`,
	}
}

var _ ssm.Module = (*Module)(nil)
