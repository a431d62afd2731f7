package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/audit"
	"libseal/internal/httpparse"
	"libseal/internal/services/gitserver"
	"libseal/internal/sqldb"
	"libseal/internal/ssm"
	"libseal/internal/ssm/dropboxssm"
	"libseal/internal/ssm/owncloudssm"
)

// LogFiller replays a synthetic request/response stream for one service
// through its SSM into a database, without the TLS/enclave pipeline. The
// Fig. 6 experiment uses it to measure invariant checking and trimming cost
// in isolation.
type LogFiller struct {
	Module ssm.Module
	DB     *sqldb.DB
	time   int64
	next   func(f *LogFiller) (req *httpparse.Request, rsp *httpparse.Response)
	state  any

	// Set by Attach: tuples then flow through a real (one-shard) audit log,
	// so Check and Trim pay the full fixed costs (enclave crossings, the
	// database trim, and — when it is due — the compaction's persistent
	// rewrite, counter increment and re-signing).
	log    *audit.ShardedLog
	bridge *asyncall.Bridge
	trim   []*sqldb.Stmt // the module's trim script, prepared once
}

// Attach routes the filler through a persistent audit log inside the given
// enclave bridge. cfg.Schema and cfg.Name default to the module's.
func (f *LogFiller) Attach(bridge *asyncall.Bridge, cfg audit.Config) error {
	if cfg.Schema == "" {
		cfg.Schema = f.Module.Schema()
	}
	if cfg.Name == "" {
		cfg.Name = f.Module.Name()
	}
	var l *audit.ShardedLog
	if err := bridge.Call(func(env *asyncall.Env) error {
		var err error
		l, err = audit.NewSharded(env, audit.ShardedConfig{Config: cfg})
		return err
	}); err != nil {
		return err
	}
	for _, q := range f.Module.TrimQueries() {
		stmts, err := l.DB().PrepareScript(q)
		if err != nil {
			l.Close()
			return err
		}
		f.trim = append(f.trim, stmts...)
	}
	f.log = l
	f.bridge = bridge
	f.DB = l.DB()
	return nil
}

// Fill applies n request/response pairs.
func (f *LogFiller) Fill(n int) error {
	for i := 0; i < n; i++ {
		req, rsp := f.next(f)
		f.time++
		tuples, err := f.Module.HandlePair(&ssm.State{Time: f.time, DB: f.DB}, req.Bytes(), rsp.Bytes())
		if err != nil {
			return err
		}
		if f.log != nil {
			if err := f.bridge.Call(func(env *asyncall.Env) error {
				for _, tu := range tuples {
					if err := f.log.Append(env, 0, tu.Table, tu.Values...); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
			continue
		}
		for _, tu := range tuples {
			ph := strings.TrimSuffix(strings.Repeat("?,", len(tu.Values)), ",")
			if _, err := f.DB.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%s)", tu.Table, ph), tu.Values...); err != nil {
				return err
			}
		}
	}
	return nil
}

// Check runs all invariants and returns the number of violations.
func (f *LogFiller) Check() (int, error) {
	v, err := ssm.CheckInvariants(f.DB, f.Module)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, res := range v {
		total += len(res.Rows)
	}
	return total, nil
}

// Trim applies the module's trimming queries. When attached to an audit
// log, the trim includes the compaction — chain rewrite, counter increment
// and re-signing of §5.1 — whatever the files' dead share.
func (f *LogFiller) Trim() error {
	if f.log != nil {
		return f.bridge.Call(func(env *asyncall.Env) error {
			return f.log.Trim(env, f.Module.TrimQueries())
		})
	}
	for _, q := range f.Module.TrimQueries() {
		if _, err := f.DB.Exec(q); err != nil {
			return err
		}
	}
	return nil
}

// CheckTrim runs a full check-and-trim round inside the enclave (when
// attached) and returns its duration. The round follows core's cycle rule:
// the trim is planned on a snapshot and applied to the database, and the log
// file is compacted only when that leaves half its bytes dead.
func (f *LogFiller) CheckTrim() (time.Duration, error) {
	start := time.Now()
	if f.bridge != nil {
		err := f.bridge.Call(func(env *asyncall.Env) error {
			if _, err := ssm.CheckInvariants(f.DB, f.Module); err != nil {
				return err
			}
			plan, err := audit.PlanTrim(f.DB.Snapshot(), f.trim)
			if err != nil || plan.Deleted() == 0 {
				return err
			}
			if err := f.log.ApplyTrim(env, plan); err != nil || !f.log.CompactDue() {
				return err
			}
			return f.log.Compact(env)
		})
		return time.Since(start), err
	}
	if _, err := f.Check(); err != nil {
		return 0, err
	}
	if err := f.Trim(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func newFiller(m ssm.Module, next func(*LogFiller) (*httpparse.Request, *httpparse.Response)) (*LogFiller, error) {
	db := sqldb.New()
	if _, err := db.Exec(m.Schema()); err != nil {
		return nil, err
	}
	return &LogFiller{Module: m, DB: db, next: next}, nil
}

type gitFillerState struct {
	gen   *gitserver.HistoryGenerator
	since int
}

// NewGitFiller replays a synthetic commit history: pushes with a ref
// advertisement every tenth pair.
func NewGitFiller(m ssm.Module) (*LogFiller, error) {
	f, err := newFiller(m, func(f *LogFiller) (*httpparse.Request, *httpparse.Response) {
		st := f.state.(*gitFillerState)
		st.since++
		if st.since%10 == 0 {
			var body strings.Builder
			for branch, cid := range st.gen.Heads() {
				fmt.Fprintf(&body, "ref %s %s\n", branch, cid)
			}
			return httpparse.NewRequest("GET", "/git/bench/info/refs", nil),
				httpparse.NewResponse(200, []byte(body.String()))
		}
		return httpparse.NewRequest("POST", "/git/bench/git-receive-pack", []byte(st.gen.PushLines())),
			httpparse.NewResponse(200, []byte("ok"))
	})
	if err != nil {
		return nil, err
	}
	f.state = &gitFillerState{gen: gitserver.NewHistoryGenerator("bench", 99)}
	return f, nil
}

type ownCloudFillerState struct {
	seq   int64
	turn  int
	ops   []string
	since int64
}

// NewOwnCloudFiller alternates pushes, syncs and session snapshots for one
// document edited by several clients.
func NewOwnCloudFiller(m ssm.Module) (*LogFiller, error) {
	f, err := newFiller(m, func(f *LogFiller) (*httpparse.Request, *httpparse.Response) {
		st := f.state.(*ownCloudFillerState)
		st.turn++
		switch st.turn % 5 {
		case 0: // a client leaves, uploading a snapshot
			body, _ := json.Marshal(owncloudssm.LeaveMsg{
				Doc: "doc", Client: "alice", Snapshot: strings.Repeat("x", 64), Seq: st.seq,
			})
			return httpparse.NewRequest("POST", "/owncloud/leave", body),
				httpparse.NewResponse(200, []byte(`{"ok":1}`))
		case 1, 2: // single-character edits (§6.4 workload)
			op := fmt.Sprintf("ins(%d,'a')", st.seq)
			st.ops = append(st.ops, op)
			st.seq++
			body, _ := json.Marshal(owncloudssm.PushMsg{Doc: "doc", Client: "alice", Ops: []string{op}})
			rsp, _ := json.Marshal(owncloudssm.PushRsp{Seq: st.seq})
			return httpparse.NewRequest("POST", "/owncloud/push", body),
				httpparse.NewResponse(200, rsp)
		default: // another client syncs
			ops := st.ops[st.since:]
			body, _ := json.Marshal(owncloudssm.SyncMsg{Doc: "doc", Client: "bob", Since: st.since})
			rsp, _ := json.Marshal(owncloudssm.SyncRsp{Ops: ops, Seq: st.seq})
			st.since = st.seq
			return httpparse.NewRequest("POST", "/owncloud/sync", body),
				httpparse.NewResponse(200, rsp)
		}
	})
	if err != nil {
		return nil, err
	}
	f.state = &ownCloudFillerState{}
	return f, nil
}

type dropboxFillerState struct {
	turn  int
	files map[string]string
}

// NewDropboxFiller creates and deletes files, interleaving full list
// requests, shaped like the Drago et al. personal-cloud benchmark.
func NewDropboxFiller(m ssm.Module) (*LogFiller, error) {
	f, err := newFiller(m, func(f *LogFiller) (*httpparse.Request, *httpparse.Response) {
		st := f.state.(*dropboxFillerState)
		st.turn++
		if st.turn%10 == 0 { // periodic list request (§6.1)
			var out dropboxssm.ListRsp
			for name, bl := range st.files {
				out.Files = append(out.Files, dropboxssm.FileCommit{File: name, Blocklist: bl, Size: 4096})
			}
			rsp, _ := json.Marshal(out)
			return httpparse.NewRequest("GET", "/dropbox/list?account=u&host=h", nil),
				httpparse.NewResponse(200, rsp)
		}
		name := fmt.Sprintf("file-%d.dat", st.turn%20)
		bl := fmt.Sprintf("%064d", st.turn)
		st.files[name] = bl
		body, _ := json.Marshal(dropboxssm.CommitBatchMsg{
			Account: "u", Host: "h",
			Commits: []dropboxssm.FileCommit{{File: name, Blocklist: bl, Size: 4096}},
		})
		return httpparse.NewRequest("POST", "/dropbox/commit_batch", body),
			httpparse.NewResponse(200, []byte(`{"ok":1}`))
	})
	if err != nil {
		return nil, err
	}
	f.state = &dropboxFillerState{files: map[string]string{}}
	return f, nil
}

// LogFootprint measures the serialised size of a trimmed audit log: the sum
// of the entry encodings of every retained tuple, and the tuple count. The
// §6.5 experiment divides them to obtain bytes per retained unit (branch
// pointer, update, file).
func LogFootprint(db *sqldb.DB) (bytes int64, tuples int) {
	for _, table := range db.Tables() {
		rows, err := db.TableRows(table)
		if err != nil {
			continue
		}
		for i, row := range rows {
			e := audit.Entry{Seq: uint64(i), Table: table, Values: row}
			bytes += int64(len(e.Marshal()))
			tuples++
		}
	}
	return bytes, tuples
}
