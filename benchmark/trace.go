package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"libseal/internal/audit"
	"libseal/internal/httpparse"
	"libseal/internal/services/apache"
	"libseal/internal/ssm"
	"libseal/internal/tlsterm"
	"libseal/internal/vfs"
)

// reqHeader carries the harness's request id. It is sent in traced and
// untraced runs alike so the audited bytes are identical.
const reqHeader = "X-Bench-Req"

// timer identifies one timed seam. The name is what a span of it is called
// in the span file.
type timer int

const (
	tmAccept timer = iota
	tmTLSWrite
	tmHandle
	tmSSM
	tmRoteIncrement
	tmRoteRead
	tmVfsSync
	tmVfsWrite
	tmAppend
	tmTrim
	tmCheck
	tmInvariant
	tmVerify
	numTimers
)

var timerNames = [numTimers]string{
	"tlsterm.accept", "tlsterm.write", "services.handle", "ssm.handle_pair",
	"rote.increment", "rote.read", "vfs.sync", "vfs.write",
	"audit.append", "audit.trim", "audit.check", "audit.check.inv", "verify",
}

// counter identifies one plain count taken at a seam.
type counter int

const (
	ctTLSBytesOut counter = iota
	ctTuples
	ctVfsWriteBytes
	ctVfsRewriteBytes
	ctVfsRenames
	numCounters
)

// maxSpans bounds the spans kept in memory; the sums behind the per-layer
// table are not bounded by it.
const maxSpans = 250_000

// maxPairs bounds the raw request/response pairs kept for the httpparse
// replay (a static_mix pair is up to 64 KiB).
const maxPairs = 256

type span struct {
	tm         timer
	start, end time.Duration // since tracer.epoch
	req        uint64        // 0 = not knowable at this seam
}

// tracer aggregates the timings and counts taken at the seams while on is
// set. A nil *tracer is an untraced run: deploy installs no wrapper at all.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	ns, n  [numTimers]atomic.Int64
	counts [numCounters]atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int
	pairs   [][2][]byte
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

// observe records one timed call that started at start and ends now.
func (t *tracer) observe(tm timer, start time.Time, req uint64) {
	if !t.on.Load() {
		return
	}
	end := time.Now()
	t.ns[tm].Add(int64(end.Sub(start)))
	t.n[tm].Add(1)
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{tm, start.Sub(t.epoch), end.Sub(t.epoch), req})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

func (t *tracer) add(c counter, v int) {
	if t.on.Load() {
		t.counts[c].Add(int64(v))
	}
}

// event is the libseal.RegisterTrace hook: it folds the library's own
// telemetry events into the same table. The event carries only a duration,
// so the span is taken to end now.
func (t *tracer) event(name string, d time.Duration) {
	var tm timer
	switch {
	case name == "audit.append":
		tm = tmAppend
	case name == "audit.trim":
		tm = tmTrim
	case name == "audit.check":
		tm = tmCheck
	case strings.HasPrefix(name, "audit.check.inv."):
		tm = tmInvariant
	default:
		return
	}
	t.observe(tm, time.Now().Add(-d), 0)
}

func (t *tracer) ms(tm timer) float64     { return float64(t.ns[tm].Load()) / 1e6 }
func (t *tracer) calls(tm timer) float64  { return float64(t.n[tm].Load()) }
func (t *tracer) count(c counter) float64 { return float64(t.counts[c].Load()) }

// meanMs is the mean duration of one call, or -1 (missing) when none was
// seen.
func (t *tracer) meanMs(tm timer) float64 {
	if t.n[tm].Load() == 0 {
		return missing
	}
	return t.ms(tm) / t.calls(tm)
}

// writeSpans writes the kept spans as JSON lines, after one header line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	err = enc.Encode(map[string]any{"spans": len(t.spans), "dropped": t.dropped, "time_unit": "us since tracer start"})
	for _, s := range t.spans {
		if err != nil {
			break
		}
		line := map[string]any{
			"name":     timerNames[s.tm],
			"start_us": float64(s.start) / 1e3,
			"end_us":   float64(s.end) / 1e3,
		}
		if s.req != 0 {
			line["req"] = s.req
		}
		err = enc.Encode(line)
	}
	t.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// reqID extracts the X-Bench-Req value from raw request bytes; 0 if absent.
func reqID(raw []byte) uint64 {
	i := bytes.Index(raw, []byte(reqHeader+": "))
	if i < 0 {
		return 0
	}
	rest := raw[i+len(reqHeader)+2:]
	if j := bytes.IndexByte(rest, '\r'); j >= 0 {
		rest = rest[:j]
	}
	id, _ := strconv.ParseUint(string(rest), 10, 64)
	return id
}

// --- tlsterm seam ---

type tracedTerminator struct {
	inner tlsterm.Terminator
	t     *tracer
}

func (tt tracedTerminator) Accept(conn net.Conn) (tlsterm.Stream, error) {
	start := time.Now()
	s, err := tt.inner.Accept(conn)
	if err != nil {
		return nil, err
	}
	tt.t.observe(tmAccept, start, 0)
	return &tracedStream{Stream: s, t: tt.t}, nil
}

// tracedStream is used by one server worker at a time, so req needs no lock.
type tracedStream struct {
	tlsterm.Stream
	t   *tracer
	req uint64
}

func (s *tracedStream) Read(p []byte) (int, error) {
	n, err := s.Stream.Read(p)
	if id := reqID(p[:n]); id != 0 {
		s.req = id
	}
	return n, err
}

func (s *tracedStream) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := s.Stream.Write(p)
	s.t.observe(tmTLSWrite, start, s.req)
	s.t.add(ctTLSBytesOut, n)
	return n, err
}

// --- services seam ---

type tracedHandler struct {
	inner apache.Handler
	t     *tracer
}

func (h tracedHandler) Handle(req *httpparse.Request) *httpparse.Response {
	start := time.Now()
	rsp := h.inner.Handle(req)
	id, _ := strconv.ParseUint(req.Header.Get(reqHeader), 10, 64)
	h.t.observe(tmHandle, start, id)
	return rsp
}

// --- ssm seam ---

type tracedModule struct {
	ssm.Module
	t *tracer
}

func (m tracedModule) HandlePair(st *ssm.State, req, rsp []byte) ([]ssm.Tuple, error) {
	start := time.Now()
	tuples, err := m.Module.HandlePair(st, req, rsp)
	m.t.observe(tmSSM, start, reqID(req))
	m.t.add(ctTuples, len(tuples))
	if m.t.on.Load() {
		m.t.mu.Lock()
		if len(m.t.pairs) < maxPairs {
			m.t.pairs = append(m.t.pairs, [2][]byte{bytes.Clone(req), bytes.Clone(rsp)})
		}
		m.t.mu.Unlock()
	}
	return tuples, err
}

// --- rote seam ---

// protector is what the audit log uses of a counter group; rote.Group has
// both the plain and the context forms, and the wrapper must keep the
// context form or AnchorTimeout would stop applying.
type protector interface {
	audit.RollbackProtector
	audit.ContextRollbackProtector
}

type tracedProtector struct {
	inner protector
	t     *tracer
}

func (p tracedProtector) Increment(name string) (uint64, error) {
	defer p.t.observe(tmRoteIncrement, time.Now(), 0)
	return p.inner.Increment(name)
}

func (p tracedProtector) Read(name string) (uint64, error) {
	defer p.t.observe(tmRoteRead, time.Now(), 0)
	return p.inner.Read(name)
}

func (p tracedProtector) IncrementContext(ctx context.Context, name string) (uint64, error) {
	defer p.t.observe(tmRoteIncrement, time.Now(), 0)
	return p.inner.IncrementContext(ctx, name)
}

func (p tracedProtector) ReadContext(ctx context.Context, name string) (uint64, error) {
	defer p.t.observe(tmRoteRead, time.Now(), 0)
	return p.inner.ReadContext(ctx, name)
}

// --- vfs seam ---

type tracedFS struct {
	vfs.FS
	t *tracer
}

func (fs tracedFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	// The log creates a file only to rewrite itself (trim, manifest
	// rewrite); appends go through Append.
	return &tracedFile{File: f, t: fs.t, rewrite: true}, nil
}

func (fs tracedFS) Append(name string) (vfs.File, error) {
	f, err := fs.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, t: fs.t}, nil
}

func (fs tracedFS) Rename(oldname, newname string) error {
	fs.t.add(ctVfsRenames, 1)
	return fs.FS.Rename(oldname, newname)
}

type tracedFile struct {
	vfs.File
	t       *tracer
	rewrite bool
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.t.observe(tmVfsWrite, start, 0)
	f.t.add(ctVfsWriteBytes, n)
	if f.rewrite {
		f.t.add(ctVfsRewriteBytes, n)
	}
	return n, err
}

func (f *tracedFile) Sync() error {
	defer f.t.observe(tmVfsSync, time.Now(), 0)
	return f.File.Sync()
}

// meanUs is meanMs in microseconds.
func (t *tracer) meanUs(tm timer) float64 {
	if m := t.meanMs(tm); m != missing {
		return m * 1e3
	}
	return missing
}

// replayParse times httpparse alone on the pairs the SSM seam kept, and
// returns the mean microseconds per pair (missing when none was kept).
func (t *tracer) replayParse() float64 {
	t.mu.Lock()
	pairs := t.pairs
	t.mu.Unlock()
	if len(pairs) == 0 {
		return missing
	}
	const rounds = 8
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, p := range pairs {
			if _, _, err := httpparse.ConsumeRequest(p[0]); err != nil {
				return missing
			}
			if _, _, err := httpparse.ConsumeResponse(p[1]); err != nil {
				return missing
			}
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(rounds*len(pairs))
}
