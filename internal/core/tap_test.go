package core

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"libseal/internal/asyncall"
	"libseal/internal/audit"
	"libseal/internal/httpparse"
	"libseal/internal/netsim"
	"libseal/internal/ssm"
	"libseal/internal/ssm/gitssm"
	"libseal/internal/testutil"
	"libseal/internal/tlsterm"
)

// TestTapDoesNotRetainCallerBuffers holds core to the Tap contract: data is
// valid only for the duration of OnData. Requests and responses are handed
// to the tap whole, split in two and pipelined two to a buffer; every buffer
// is scribbled over as soon as the call returns, and the staged tuples — and
// the pairing of what came next — must still be those of the original bytes.
func TestTapDoesNotRetainCallerBuffers(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{Module: gitssm.New(), AuditMode: audit.ModeMemory})
	const conn = 7

	// tap hands one buffer to the tap as the record layer would, then ruins it.
	tap := func(dir tlsterm.Direction, msg []byte) {
		t.Helper()
		buf := bytes.Clone(msg)
		err := env.bridge.Call(func(e *asyncall.Env) error {
			_, err := (*sealTap)(ls).OnData(e, conn, dir, buf)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 'X'
		}
	}
	push := func(i int) []byte {
		return httpparse.NewRequest("POST", "/git/r/git-receive-pack", []byte(fmt.Sprintf("create b%d c%d", i, i))).Bytes()
	}
	fetch := httpparse.NewRequest("GET", "/git/r/info/refs", nil).Bytes()
	ok := httpparse.NewResponse(200, []byte("ok")).Bytes()
	advert := func(i int) []byte {
		return httpparse.NewResponse(200, []byte(fmt.Sprintf("ref b%d c%d\n", i, i))).Bytes()
	}

	// One buffer each.
	tap(tlsterm.DirRead, push(1))
	tap(tlsterm.DirWrite, ok)
	// A request and its response in two halves each: the first half is an
	// incomplete tail the tracker must have copied.
	req, rsp := push(2), ok
	tap(tlsterm.DirRead, req[:len(req)/2])
	tap(tlsterm.DirRead, req[len(req)/2:])
	tap(tlsterm.DirWrite, rsp[:len(rsp)/2])
	tap(tlsterm.DirWrite, rsp[len(rsp)/2:])
	// Two pipelined requests in one buffer, their responses in one buffer.
	tap(tlsterm.DirRead, append(push(3), fetch...))
	tap(tlsterm.DirWrite, append(bytes.Clone(ok), advert(3)...))
	// A response and a half, then the other half with a whole one behind it:
	// pairs cut from the tracker's own buffer while a tail stays.
	tap(tlsterm.DirRead, append(append(push(4), fetch...), fetch...))
	second := advert(4)
	tap(tlsterm.DirWrite, append(bytes.Clone(ok), second[:10]...))
	tap(tlsterm.DirWrite, append(bytes.Clone(second[10:]), advert(5)...))

	res, err := ls.Log().Query("SELECT branch, cid FROM updates ORDER BY time")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range res.Rows {
		got = append(got, row[0].TextVal()+"="+row[1].TextVal())
	}
	if want := "[b1=c1 b2=c2 b3=c3 b4=c4]"; fmt.Sprint(got) != want {
		t.Fatalf("updates = %v, want %s", got, want)
	}
	res, err = ls.Log().Query("SELECT branch, cid FROM advertisements ORDER BY time")
	if err != nil {
		t.Fatal(err)
	}
	got = nil
	for _, row := range res.Rows {
		got = append(got, row[0].TextVal()+"="+row[1].TextVal())
	}
	if want := "[b3=c3 b4=c4 b5=c5]"; fmt.Sprint(got) != want {
		t.Fatalf("advertisements = %v, want %s", got, want)
	}
	if st := ls.StatsSnapshot(); st.Pairs != 7 {
		t.Fatalf("pairs = %d, want 7", st.Pairs)
	}
}

// TestLargeResponseWriteAllocation bounds what one 64 KiB static response
// costs in allocation on its way through SSL_write with the audit tap
// attached: parsed where it lies, sealed into pooled frames and carried by
// the simulated network in pooled copies, it allocates no buffer of its own
// size — about 1 KiB a response. (Before the tap parsed in place and frames
// were pooled this read about six times the response; before the network
// pooled its copies, once the response.) Under the race detector sync.Pool
// drops a quarter of what is put back, so there the bound is the response.
func TestLargeResponseWriteAllocation(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{Module: gitssm.New(), AuditMode: audit.ModeMemory})
	cConn, sConn := netsim.Pipe(netsim.LinkConfig{})
	accepted := make(chan *tlsterm.SSL, 1)
	go func() {
		ssl := ls.TLS().NewSSL(sConn)
		if err := ssl.Accept(); err != nil {
			t.Error(err)
			ssl = nil
		}
		accepted <- ssl
	}()
	client, err := tlsterm.Connect(cConn, &tlsterm.ClientConfig{Roots: env.pool, ServerName: "svc"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ssl := <-accepted
	if ssl == nil {
		t.FailNow()
	}
	defer ssl.Close()

	request := httpparse.NewRequest("GET", "/static/large", nil).Bytes()
	response := httpparse.NewResponse(200, bytes.Repeat([]byte("s"), 64<<10)).Bytes()
	sink := make([]byte, len(response))
	roundTrip := func() {
		if _, err := client.Write(request); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(ssl, make([]byte, len(request))); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := io.ReadFull(client, sink)
			done <- err
		}()
		if _, err := ssl.Write(response); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // fills the frame pool and sizes the record buffers

	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	limit := uint64(4 << 10)
	if testutil.RaceEnabled {
		limit = uint64(len(response))
	}
	if perRun > limit {
		t.Fatalf("one %d-byte response allocated %d bytes, want <= %d", len(response), perRun, limit)
	}
	if !bytes.Equal(sink, response) {
		t.Fatal("client read a different response")
	}
	if st := ls.StatsSnapshot(); st.Pairs != runs+1 {
		t.Fatalf("pairs = %d, want %d", st.Pairs, runs+1)
	}
}

// quietMod is handed every pair and logs nothing, so what a pair allocates
// is the tap's own.
type quietMod struct{ pairMod }

func (quietMod) HandlePair(*ssm.State, []byte, []byte) ([]ssm.Tuple, error) { return nil, nil }

// TestTapFramesWithoutBuilding: the tap frames requests and responses — it
// needs their lengths and whether a request asks for a check — and builds
// neither. A request/response pair allocates the copy of the request the
// tap keeps until its response comes and the ssm.State the module is handed,
// nothing else.
func TestTapFramesWithoutBuilding(t *testing.T) {
	env := newCoreEnv(t)
	ls := newGitLibSEAL(t, env, Config{Module: quietMod{}, AuditMode: audit.ModeMemory})
	req := httpparse.NewRequest("GET", "/s", nil)
	req.Header.Set("X-Bench-Req", "1099511627777")
	reqBytes := req.Bytes()
	rsp := httpparse.NewResponse(200, bytes.Repeat([]byte("s"), 1024)).Bytes()
	const runs = 100
	err := env.bridge.Call(func(e *asyncall.Env) error {
		tap := (*sealTap)(ls)
		perPair := testing.AllocsPerRun(runs, func() {
			if _, err := tap.OnData(e, 1, tlsterm.DirRead, reqBytes); err != nil {
				t.Fatal(err)
			}
			if out, err := tap.OnData(e, 1, tlsterm.DirWrite, rsp); err != nil || out != nil {
				t.Fatalf("write: %q, %v", out, err)
			}
		})
		if perPair != 2 {
			t.Errorf("%.1f allocations per request/response pair, want 2", perPair)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := ls.StatsSnapshot(); st.Pairs != runs+1 {
		t.Fatalf("pairs = %d, want %d", st.Pairs, runs+1)
	}
}

// valueMod logs two tuples per pair: its logical time, then v.
type valueMod struct {
	pairMod
	v any
}

func (m valueMod) HandlePair(st *ssm.State, _, _ []byte) ([]ssm.Tuple, error) {
	return []ssm.Tuple{
		{Table: "pairs", Values: []any{st.Time}},
		{Table: "pairs", Values: []any{m.v}},
	}, nil
}

// TestUnsupportedValueFailsWrite: no value kind holds a float or a byte
// string (DESIGN.md §15). A module whose tuple carries one fails the SSL write
// that would have logged it, and the pair leaves no row and no staged entry,
// its valid tuple included.
func TestUnsupportedValueFailsWrite(t *testing.T) {
	req := httpparse.NewRequest("GET", "/s", nil).Bytes()
	rsp := httpparse.NewResponse(200, []byte("ok")).Bytes()
	for _, v := range []any{2.5, []byte("x")} {
		env := newCoreEnv(t)
		ls := newGitLibSEAL(t, env, Config{Module: valueMod{v: v}, AuditMode: audit.ModeMemory})
		err := env.bridge.Call(func(e *asyncall.Env) error {
			tap := (*sealTap)(ls)
			if _, err := tap.OnData(e, 1, tlsterm.DirRead, req); err != nil {
				t.Fatalf("%T: read: %v", v, err)
			}
			_, err := tap.OnData(e, 1, tlsterm.DirWrite, rsp)
			return err
		})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported parameter type %T", v)) {
			t.Fatalf("%T: write = %v, want the unsupported-type error", v, err)
		}
		rows, err := ls.Log().DB().TableRowCount("pairs")
		if err != nil || rows != 0 || ls.Log().Seq() != 0 || ls.Log().PendingStaged() != 0 {
			t.Fatalf("%T: %d rows (%v), %d entries, %d staged after the failed write; want none", v, rows, err, ls.Log().Seq(), ls.Log().PendingStaged())
		}
	}
}
