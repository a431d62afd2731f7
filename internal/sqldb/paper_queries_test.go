package sqldb

import (
	"testing"
)

// These tests run the SQL that appears verbatim in the LibSEAL paper (§1,
// §3.1, §5.1, §6.2) against the engine, using the Git audit schema.

// gitAuditSchema is gitssm's schema (§5.1).
const gitAuditSchema = `
	CREATE TABLE updates (time INTEGER, repo TEXT, branch TEXT, cid TEXT, type TEXT);
	CREATE TABLE advertisements (time INTEGER, repo TEXT, branch TEXT, cid TEXT);
	CREATE VIEW branchcnt AS
		SELECT DISTINCT a.time,a.repo,COUNT(u.branch) AS cnt
		FROM advertisements a
		JOIN updates u ON u.time < a.time AND u.repo = a.repo
		WHERE u.type != 'delete' AND u.time = (SELECT MAX(time)
			FROM updates WHERE branch = u.branch
			AND repo = u.repo AND time < a.time) GROUP BY
			a.time,a.repo,a.branch`

func gitAuditDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, gitAuditSchema)
	return db
}

const gitSoundnessSQL = `SELECT * FROM advertisements a WHERE cid != (
	SELECT u.cid FROM updates u WHERE u.repo = a.repo AND
		u.branch = a.branch AND u.time < a.time ORDER BY
		u.time DESC LIMIT 1)`

const gitCompletenessSQL = `SELECT time, repo FROM advertisements
	NATURAL JOIN branchcnt
	GROUP BY time, repo, cnt HAVING COUNT(branch) != cnt`

const gitTrimSQL = `DELETE FROM advertisements;
	DELETE FROM updates WHERE time NOT IN
		(SELECT MAX(time) FROM updates GROUP BY repo, branch)`

func TestGitSoundnessInvariantClean(t *testing.T) {
	db := gitAuditDB(t)
	// Two updates to main, then an advertisement of the latest commit.
	mustExec(t, db, `INSERT INTO updates VALUES
		(1,'r','main','c1','update'),
		(2,'r','main','c2','update')`)
	mustExec(t, db, `INSERT INTO advertisements VALUES (3,'r','main','c2')`)
	res := mustQuery(t, db, gitSoundnessSQL)
	if !res.Empty() {
		t.Fatalf("clean log reported soundness violations: %v", res.Rows)
	}
}

func TestGitSoundnessDetectsRollback(t *testing.T) {
	db := gitAuditDB(t)
	mustExec(t, db, `INSERT INTO updates VALUES
		(1,'r','main','c1','update'),
		(2,'r','main','c2','update')`)
	// The server advertises the *old* commit: a rollback attack.
	mustExec(t, db, `INSERT INTO advertisements VALUES (3,'r','main','c1')`)
	res := mustQuery(t, db, gitSoundnessSQL)
	if len(res.Rows) != 1 {
		t.Fatalf("rollback not detected: %v", res.Rows)
	}
	if res.Rows[0][0].Int64() != 3 || res.Rows[0][1].TextVal() != "r" {
		t.Fatalf("violation tuple = %v", res.Rows[0])
	}
}

func TestGitSoundnessDetectsTeleport(t *testing.T) {
	db := gitAuditDB(t)
	mustExec(t, db, `INSERT INTO updates VALUES
		(1,'r','main','c1','update'),
		(2,'r','dev','d9','update')`)
	// main is advertised pointing at dev's commit: a teleport attack.
	mustExec(t, db, `INSERT INTO advertisements VALUES (3,'r','main','d9')`)
	res := mustQuery(t, db, gitSoundnessSQL)
	if len(res.Rows) != 1 {
		t.Fatalf("teleport not detected: %v", res.Rows)
	}
}

func TestGitCompletenessInvariantClean(t *testing.T) {
	db := gitAuditDB(t)
	mustExec(t, db, `INSERT INTO updates VALUES
		(1,'r','main','c1','update'),
		(2,'r','dev','d1','update')`)
	// Advertisement at time 3 lists both branches: complete.
	mustExec(t, db, `INSERT INTO advertisements VALUES
		(3,'r','main','c1'),
		(3,'r','dev','d1')`)
	res := mustQuery(t, db, gitCompletenessSQL)
	if !res.Empty() {
		t.Fatalf("complete advertisement flagged: %v", res.Rows)
	}
}

func TestGitCompletenessDetectsReferenceDeletion(t *testing.T) {
	db := gitAuditDB(t)
	mustExec(t, db, `INSERT INTO updates VALUES
		(1,'r','main','c1','update'),
		(2,'r','dev','d1','update')`)
	// Advertisement omits dev: a reference-deletion attack.
	mustExec(t, db, `INSERT INTO advertisements VALUES (3,'r','main','c1')`)
	res := mustQuery(t, db, gitCompletenessSQL)
	if len(res.Rows) != 1 {
		t.Fatalf("reference deletion not detected: %v", res.Rows)
	}
	if res.Rows[0][0].Int64() != 3 || res.Rows[0][1].TextVal() != "r" {
		t.Fatalf("violation tuple = %v", res.Rows[0])
	}
}

func TestGitCompletenessRespectsDeletedBranches(t *testing.T) {
	db := gitAuditDB(t)
	mustExec(t, db, `INSERT INTO updates VALUES
		(1,'r','main','c1','update'),
		(2,'r','dev','d1','update'),
		(3,'r','dev','d1','delete')`)
	// dev was legitimately deleted; advertising only main is complete.
	mustExec(t, db, `INSERT INTO advertisements VALUES (4,'r','main','c1')`)
	res := mustQuery(t, db, gitCompletenessSQL)
	if !res.Empty() {
		t.Fatalf("legitimate deletion flagged as violation: %v", res.Rows)
	}
}

func TestGitTrimmingQueries(t *testing.T) {
	db := gitAuditDB(t)
	mustExec(t, db, `INSERT INTO updates VALUES
		(1,'r','main','c1','update'),
		(2,'r','main','c2','update'),
		(3,'r','dev','d1','update'),
		(4,'s','main','e1','update')`)
	mustExec(t, db, `INSERT INTO advertisements VALUES
		(5,'r','main','c2'), (5,'r','dev','d1')`)
	mustExec(t, db, gitTrimSQL)
	if n, _ := db.TableRowCount("advertisements"); n != 0 {
		t.Fatalf("advertisements not truncated: %d rows", n)
	}
	got := flat(mustQuery(t, db, "SELECT time, repo, branch FROM updates ORDER BY time"))
	// Only the most recent update per (repo, branch) survives.
	if got != "2,r,main;3,r,dev;4,s,main" {
		t.Fatalf("updates after trim = %q", got)
	}
	// Invariants still hold on the trimmed log after new activity.
	mustExec(t, db, `INSERT INTO advertisements VALUES
		(6,'r','main','c2'), (6,'r','dev','d1')`)
	if res := mustQuery(t, db, gitSoundnessSQL); !res.Empty() {
		t.Fatalf("soundness broken after trim: %v", res.Rows)
	}
	if res := mustQuery(t, db, gitCompletenessSQL); !res.Empty() {
		t.Fatalf("completeness broken after trim: %v", res.Rows)
	}
}

// TestGitIntroInvariant runs the completeness query exactly as printed in
// the paper's introduction (§1), which uses NATURAL JOIN against the view.
func TestGitIntroInvariant(t *testing.T) {
	db := gitAuditDB(t)
	mustExec(t, db, `INSERT INTO updates VALUES
		(1,'repo1','master','aaa','update'),
		(2,'repo1','feature','bbb','update')`)
	mustExec(t, db, `INSERT INTO advertisements VALUES (3,'repo1','master','aaa')`)
	res := mustQuery(t, db, `SELECT time, repo FROM advertisements
		NATURAL JOIN branchcnt
		GROUP BY time, repo, cnt HAVING COUNT(branch) != cnt`)
	if len(res.Rows) != 1 {
		t.Fatalf("incomplete advertisement not flagged: %v", res.Rows)
	}
}
