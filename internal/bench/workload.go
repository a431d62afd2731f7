package bench

import (
	"encoding/json"
	"fmt"
	"strings"

	"libseal/internal/audit"
	"libseal/internal/httpparse"
	"libseal/internal/services/gitserver"
	"libseal/internal/sqldb"
	"libseal/internal/ssm"
	"libseal/internal/ssm/dropboxssm"
	"libseal/internal/ssm/owncloudssm"
)

// LogFiller is a synthetic request/response stream for one service. Fill
// replays it through the service's SSM into a database, without the
// TLS/enclave pipeline — the §6.5 footprint and the ablation measure that
// database. Request hands out the stream's requests alone, for a real
// service to answer: Fig. 6 sends them through the service's deployment.
type LogFiller struct {
	Module ssm.Module
	DB     *sqldb.DB
	time   int64
	next   func(f *LogFiller) (req *httpparse.Request, rsp *httpparse.Response)
	state  any
}

// Request advances the stream by one pair and returns its request.
func (f *LogFiller) Request() *httpparse.Request {
	req, _ := f.next(f)
	return req
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
		for _, tu := range tuples {
			ph := strings.TrimSuffix(strings.Repeat("?,", len(tu.Values)), ",")
			if _, err := f.DB.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%s)", tu.Table, ph), tu.Values...); err != nil {
				return err
			}
		}
	}
	return nil
}

// Trim applies the module's trimming queries.
func (f *LogFiller) Trim() error {
	for _, q := range f.Module.TrimQueries() {
		if _, err := f.DB.Exec(q); err != nil {
			return err
		}
	}
	return nil
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
