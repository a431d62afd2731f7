package ssm_test

import (
	"testing"

	"libseal/internal/sqldb"
	"libseal/internal/ssm"
	"libseal/internal/ssm/dropboxssm"
	"libseal/internal/ssm/gitssm"
	"libseal/internal/ssm/messagingssm"
	"libseal/internal/ssm/owncloudssm"
)

// The SQL engine runs a written grammar and nothing else (DESIGN.md §15), and
// the grammar was sized to these four modules: this is the test that every
// statement they ship is inside it, end to end — the schema executes, each
// invariant and trim query prepares and runs on the empty database and on a
// seeded one, and the trim script round-trips through the path a check+trim
// cycle takes (Snapshot.PlanTrim, DB.ApplyTrim).
var surface = []struct {
	mod ssm.Module
	// seed is a short clean history: no invariant fires on it.
	seed []string
	// trimmed is how many of the seed's rows the trim script removes.
	trimmed int
	// attack is one more tuple, and the invariant it must trip.
	attack, trips string
}{
	{
		mod: gitssm.New(),
		seed: []string{
			`INSERT INTO updates VALUES (1,'r','main','c1','create'),(2,'r','main','c2','update'),(3,'r','dev','d1','create')`,
			`INSERT INTO advertisements VALUES (4,'r','main','c2'),(4,'r','dev','d1')`,
		},
		trimmed: 3, // both advertisements, and main's superseded update
		attack:  `INSERT INTO advertisements VALUES (5,'r','main','c1'),(5,'r','dev','d1')`,
		trips:   "git-soundness",
	},
	{
		mod: dropboxssm.New(),
		seed: []string{
			`INSERT INTO commit_batch VALUES (1,'f','b1','acct','h',10),(2,'f','b2','acct','h',12),(3,'g','g1','acct','h',5)`,
			`INSERT INTO listreq VALUES (4,'acct','h')`,
			`INSERT INTO list VALUES (4,'f','b2','acct','h',12),(4,'g','g1','acct','h',5)`,
		},
		trimmed: 4, // the list response, its request, and f's superseded commit
		attack:  `INSERT INTO listreq VALUES (5,'acct','h')`,
		trips:   "dropbox-list-completeness",
	},
	{
		mod: owncloudssm.New(),
		seed: []string{
			`INSERT INTO docupdates VALUES (1,'d','c1',1,'ins a','recv'),(2,'d','c1',2,'ins b','recv')`,
			`INSERT INTO snapshots VALUES (3,'d','c1',1,'a','recv'),(4,'d','c2',1,'a','sent')`,
			`INSERT INTO docsync VALUES (5,'d','c2',1,2)`,
			`INSERT INTO docupdates VALUES (5,'d','c2',2,'ins b','sent')`,
		},
		trimmed: 4, // the sync, the sent update and snapshot, and the update the snapshot covers
		attack:  `INSERT INTO docupdates VALUES (6,'d','c2',2,'ins X','sent')`,
		trips:   "owncloud-update-soundness",
	},
	{
		mod: messagingssm.New(),
		seed: []string{
			`INSERT INTO sent VALUES (1,'m1','alice','bob',1,'hi'),(2,'m2','alice','bob',2,'yo'),(3,'m3','bob','carol',1,'x')`,
			`INSERT INTO inboxreq VALUES (4,'bob',0,2)`,
			`INSERT INTO delivered VALUES (4,'m1','alice','bob','hi','bob'),(4,'m2','alice','bob','yo','bob')`,
		},
		trimmed: 5, // the fetch, what it delivered, and the two messages it settled
		attack:  `INSERT INTO delivered VALUES (5,'m3','bob','carol','x','bob')`,
		trips:   "messaging-recipient",
	},
}

func TestModuleSQLInsideGrammar(t *testing.T) {
	for _, s := range surface {
		t.Run(s.mod.Name(), func(t *testing.T) {
			db := sqldb.New()
			if _, err := db.Exec(s.mod.Schema()); err != nil {
				t.Fatalf("schema: %v", err)
			}
			var trims []*sqldb.Stmt
			for _, q := range s.mod.TrimQueries() {
				stmts, err := db.PrepareScript(q)
				if err != nil {
					t.Fatalf("trim query %q: %v", q, err)
				}
				trims = append(trims, stmts...)
			}
			invariants := make(map[string]*sqldb.Stmt)
			for _, inv := range s.mod.Invariants() {
				stmt, err := db.Prepare(inv.SQL)
				if err != nil {
					t.Fatalf("invariant %s: %v", inv.Name, err)
				}
				invariants[inv.Name] = stmt
			}
			// violated runs every invariant on a snapshot, as a check does.
			violated := func(when string) map[string]bool {
				t.Helper()
				out := make(map[string]bool)
				snap := db.Snapshot()
				for name, stmt := range invariants {
					res, err := snap.QueryStmt(stmt)
					if err != nil {
						t.Fatalf("%s, invariant %s: %v", when, name, err)
					}
					if !res.Empty() {
						out[name] = true
					}
				}
				return out
			}
			// trim plans the script on a snapshot and applies it.
			trim := func(when string) int {
				t.Helper()
				plan, err := db.Snapshot().PlanTrim(trims)
				if err != nil {
					t.Fatalf("%s, PlanTrim: %v", when, err)
				}
				if err := db.ApplyTrim(plan); err != nil {
					t.Fatalf("%s, ApplyTrim: %v", when, err)
				}
				return plan.Deleted()
			}

			if v := violated("empty"); len(v) != 0 {
				t.Fatalf("empty database: %v", v)
			}
			if n := trim("empty"); n != 0 {
				t.Fatalf("trim of the empty database removed %d rows", n)
			}
			for _, sql := range s.seed {
				if _, err := db.Exec(sql); err != nil {
					t.Fatalf("seed %q: %v", sql, err)
				}
			}
			if v := violated("seeded"); len(v) != 0 {
				t.Fatalf("clean history: %v", v)
			}
			if n := trim("seeded"); n != s.trimmed {
				t.Fatalf("trim removed %d rows, want %d", n, s.trimmed)
			}
			if n := trim("trimmed"); n != 0 {
				t.Fatalf("a second trim removed %d more rows", n)
			}
			// What the trim kept is what later checks need: the history is
			// still clean, and an attack after it is still caught.
			if v := violated("trimmed"); len(v) != 0 {
				t.Fatalf("trimmed history: %v", v)
			}
			if _, err := db.Exec(s.attack); err != nil {
				t.Fatalf("attack %q: %v", s.attack, err)
			}
			if v := violated("attacked"); !v[s.trips] {
				t.Fatalf("after %q: violated %v, want %s", s.attack, v, s.trips)
			}
		})
	}
}
