package httpparse

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// outcome is what a Consume call is compared on: the bytes consumed, the
// error class and the parsed message re-encoded.
type outcome struct {
	consumed int
	class    string
	encoded  string
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrIncomplete):
		return "incomplete"
	case errors.Is(err, ErrMalformed):
		return "malformed"
	case errors.Is(err, ErrTooLarge):
		return "too-large"
	}
	return "other: " + err.Error()
}

func requestOutcome(req *Request, n int, err error) outcome {
	o := outcome{consumed: n, class: errClass(err)}
	if err == nil {
		o.encoded = string(req.Bytes())
	}
	return o
}

func responseOutcome(rsp *Response, n int, err error) outcome {
	o := outcome{consumed: n, class: errClass(err)}
	if err == nil {
		o.encoded = string(rsp.Bytes())
	}
	return o
}

// checkAgainstOracle asserts that the in-place parsers and the frozen bufio
// parsers agree on data, read as a request and as a response, and that a
// message the in-place parser accepts does not depend on data after the call
// except through an aliased Content-Length body.
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	if got, want := requestOutcome(ConsumeRequest(data)), requestOutcome(oracleConsumeRequest(data)); got != want {
		t.Fatalf("request, %d bytes %q:\n   new %+v\noracle %+v", len(data), clip(data), got, want)
	}
	if got, want := responseOutcome(ConsumeResponse(data)), responseOutcome(oracleConsumeResponse(data)); got != want {
		t.Fatalf("response, %d bytes %q:\n   new %+v\noracle %+v", len(data), clip(data), got, want)
	}
}

func clip(b []byte) []byte {
	if len(b) > 200 {
		return append(append([]byte{}, b[:200]...), "..."...)
	}
	return b
}

// differentialCorpus is the FuzzHTTPParse seeds plus the shapes where a
// slice parser and a buffered-stream parser could plausibly part ways.
func differentialCorpus() [][]byte {
	get := "GET /first HTTP/1.1\r\nHost: h\r\n\r\n"
	post := "POST /u HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
	ok := "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"
	chunked := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n"
	corpus := []string{
		// FuzzHTTPParse seeds.
		"GET /path?a=b HTTP/1.1\r\nHost: h\r\n\r\n", post, ok, chunked,
		"GET / HTTP/1.0\nX: y\n\n", "",
		// Pipelined pairs.
		get + post, post + get, ok + ok, ok + chunked, chunked + ok,
		// Chunked: extensions, trailers, junk after the data, upper-case
		// and signed sizes, a size past the body limit.
		"POST /c HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5;ext=1\r\nhello\r\n6 ; q\r\n world\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\ntransfer-encoding: CHUNKED\r\n\r\nA\r\n0123456789\r\n0\r\nTrailer: t\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcJUNK\r\n+2\r\nde\r\n-0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n7fffffff\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n7fffffffffffffff\r\nabc",
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n1\r\na\r\n0\r\n\r\n",
		// No Content-Length, an empty one, a zero one, a signed one.
		"HTTP/1.1 204 No Content\r\n\r\nHTTP/1.1 200 OK\r\n\r\n",
		"POST /e HTTP/1.1\r\nContent-Length:\r\n\r\nrest",
		"POST /z HTTP/1.1\r\nContent-Length: 0\r\n\r\nrest",
		"POST /p HTTP/1.1\r\nContent-Length: +4\r\n\r\nbodyrest",
		// Body limits.
		fmt.Sprintf("POST /big HTTP/1.1\r\nContent-Length: %d\r\n\r\nx", MaxBodyBytes+1),
		fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\nx", MaxBodyBytes+1),
		"POST / HTTP/1.1\r\nContent-Length: 999999999999999999999\r\n\r\n",
		// Bare-LF lines, mixed endings, a CR of its own.
		"HTTP/1.1 200 OK\nContent-Length: 2\n\nhi",
		"GET / HTTP/1.1\r\nA: b\nC: d\r\n\nrest",
		"GET / HTTP/1.1\r\nA: b\r\r\n\r\n",
		"GET / HTTP/1.1\r\n\r\r\n\r\n",
		// Malformed start lines and header lines.
		"NOT A REQUEST\r\n\r\n", "GET /\r\n\r\n", "GET / FTP/1.1\r\n\r\n", "\r\n\r\n", "\n",
		"HTTP/1.1 abc OK\r\n\r\n", "HTTP/1.1\r\n\r\n", "HTTP/1.1 200\r\n\r\n", "HTTP/1.1  200 OK\r\n\r\n",
		"GET / HTTP/1.1\r\nBadHeader\r\n\r\n", "GET / HTTP/1.1\r\n: v\r\n\r\n", "GET / HTTP/1.1\r\n  : v\r\n\r\n",
		"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", "GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
		"GET / HTTP/1.1\r\nX:  padded value \t\r\nx: second\r\n\r\n",
		"GET /\x00\xff HTTP/1.1\r\n\xfe\xff: \x80\r\n\r\n",
	}
	out := make([][]byte, len(corpus))
	for i, m := range corpus {
		out[i] = []byte(m)
	}
	return out
}

// TestConsumeDifferential holds the in-place parsers to the frozen
// bufio-based ones on every message of the corpus and every prefix length of
// it: same bytes consumed, same error class, same re-encoded message.
func TestConsumeDifferential(t *testing.T) {
	for _, msg := range differentialCorpus() {
		for cut := 0; cut <= len(msg); cut++ {
			checkAgainstOracle(t, msg[:cut])
		}
	}
}

// TestConsumeDifferentialHeaderLimit puts the header block at
// MaxHeaderBytes - 1, exactly at it and one past it. The messages are a
// mebibyte each, so the prefixes checked are the ones around the start, the
// last header line and the end plus a stride through the rest, not all.
func TestConsumeDifferentialHeaderLimit(t *testing.T) {
	for _, total := range []int{MaxHeaderBytes - 1, MaxHeaderBytes, MaxHeaderBytes + 1} {
		// The limit counts header lines without their terminators.
		fill := "X-Fill: " + strings.Repeat("f", 1<<18)
		var b strings.Builder
		b.WriteString("GET / HTTP/1.1\r\n")
		counted := 0
		for i := 0; i < 3; i++ {
			b.WriteString(fill + "\r\n")
			counted += len(fill)
		}
		lastLine := b.Len()
		b.WriteString("Y: " + strings.Repeat("y", total-counted-len("Y: ")) + "\r\n\r\ntail")
		msg := []byte(b.String())

		want := "ok"
		if total > MaxHeaderBytes {
			want = "too-large"
		}
		if _, _, err := ConsumeRequest(msg); errClass(err) != want {
			t.Fatalf("header block of %d bytes: %v, want %s", total, err, want)
		}
		for cut := 0; cut <= len(msg); cut++ {
			near := cut < 64 || cut > lastLine-32 && cut < lastLine+32 || cut > len(msg)-64
			if near || cut%65521 == 0 {
				checkAgainstOracle(t, msg[:cut])
			}
		}
	}
}

// TestReadMatchesOracle holds the stream entry points, which now share the
// parsing rules with the in-place ones, to the frozen parser as well.
func TestReadMatchesOracle(t *testing.T) {
	stream := func(b []byte) *bufio.Reader { return bufio.NewReaderSize(bytes.NewReader(b), 16) }
	for _, msg := range differentialCorpus() {
		for cut := 0; cut <= len(msg); cut++ {
			data := msg[:cut]
			req, err := ReadRequest(stream(data))
			oreq, oerr := oracleReadRequest(stream(data))
			if got, want := requestOutcome(req, 0, err), requestOutcome(oreq, 0, oerr); got != want {
				t.Fatalf("ReadRequest(%q):\n   new %+v\noracle %+v", data, got, want)
			}
			rsp, err := ReadResponse(stream(data))
			orsp, oerr := oracleReadResponse(stream(data))
			if got, want := responseOutcome(rsp, 0, err), responseOutcome(orsp, 0, oerr); got != want {
				t.Fatalf("ReadResponse(%q):\n   new %+v\noracle %+v", data, got, want)
			}
		}
	}
}

// TestContentLengthBodyAliasesInput pins the no-copy contract and its
// boundary: a Content-Length body is a window on the input whose capacity
// ends with the body, a chunked body is the parser's own.
func TestContentLengthBodyAliasesInput(t *testing.T) {
	buf := []byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhiHTTP/1.1 204 No Content\r\n\r\n")
	rsp, n, err := ConsumeResponse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if &rsp.Body[0] != &buf[n-2] {
		t.Fatal("Content-Length body was copied")
	}
	rsp.Body = append(rsp.Body, '!')
	if buf[n] != 'H' {
		t.Fatal("appending to the body reached the pipelined message behind it")
	}

	chunked := []byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nhi\r\n0\r\n\r\n")
	rsp, _, err = ConsumeResponse(chunked)
	if err != nil {
		t.Fatal(err)
	}
	for i := range chunked {
		chunked[i] = 'x'
	}
	if string(rsp.Body) != "hi" {
		t.Fatalf("chunked body follows the input: %q", rsp.Body)
	}
}

// FuzzConsumeDifferential asserts the differential property on arbitrary
// bytes and on every prefix of them.
func FuzzConsumeDifferential(f *testing.F) {
	for _, msg := range differentialCorpus() {
		f.Add(msg)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096] // every prefix is parsed: keep it quadratic in something small
		}
		for cut := 0; cut <= len(data); cut++ {
			checkAgainstOracle(t, data[:cut])
			checkFrameAgainstBuild(t, data[:cut])
		}
	})
}

// frameWatched are the field names the frame differential asks the walk
// about: one the corpus never carries, and two it does in several cases.
var frameWatched = []string{"Libseal-Check", "x", "CONTENT-LENGTH"}

// checkFrameAgainstBuild asserts that the walk that only frames and the walk
// that builds agree on data: the same bytes consumed, the same error, and a
// watched field reported present exactly when the built header has it.
func checkFrameAgainstBuild(t *testing.T, data []byte) {
	t.Helper()
	req, n, err := ConsumeRequest(data)
	for _, key := range frameWatched {
		fn, has, ferr := FrameRequest(data, key)
		if fn != n || fmt.Sprint(ferr) != fmt.Sprint(err) || err == nil && has != req.Header.Has(key) {
			t.Fatalf("request, %d bytes %q, field %q: frame (%d, %v, %v), build (%d, %v)", len(data), clip(data), key, fn, has, ferr, n, err)
		}
	}
	_, n, err = ConsumeResponse(data)
	if fn, ferr := FrameResponse(data); fn != n || fmt.Sprint(ferr) != fmt.Sprint(err) {
		t.Fatalf("response, %d bytes %q: frame (%d, %v), build (%d, %v)", len(data), clip(data), fn, ferr, n, err)
	}
}

// framingCorpus is what the header walk decides a body's framing from:
// repeated Content-Length and Transfer-Encoding fields in both orders and
// cases, valid and not, a value only a Unicode fold calls "chunked", a name
// only a Unicode fold calls Transfer-Encoding, and a repeated watched field.
func framingCorpus() [][]byte {
	corpus := []string{
		"POST / HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 5\r\n\r\nhello",
		"POST / HTTP/1.1\r\ncontent-length: 5\r\nContent-Length: 2\r\n\r\nhello",
		"POST / HTTP/1.1\r\nContent-Length:\r\nContent-Length: 3\r\n\r\nabc",
		"POST / HTTP/1.1\r\nContent-Length: x\r\nContent-Length: 3\r\n\r\nabc",
		"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: x\r\n\r\nabc",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 99999999999999\r\n\r\nhi",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\nTransfer-Encoding: chunked\r\nContent-Length: 1\r\n\r\nx",
		"HTTP/1.1 200 OK\r\nTRANSFER-ENCODING: chunked\r\ntransfer-encoding: gzip\r\n\r\n1\r\na\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: bad\r\n\r\n1\r\na\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chun\u212Aed\r\n\r\n1\r\na\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTran\u017Fer-Encoding: chunked\r\nContent-Length: 1\r\n\r\nx",
		"GET / HTTP/1.1\r\nLibseal-Check: 1\r\nX: y\r\nlibseal-check: 2\r\n\r\n",
	}
	out := make([][]byte, len(corpus))
	for i, m := range corpus {
		out[i] = []byte(m)
	}
	return out
}

// TestFrameDifferential holds the frame-only walk the core tap uses to the
// building walk on every prefix of the differential corpus, on the messages
// around the header-size limit, and on the framing corpus, which the frozen
// parser judges as well.
func TestFrameDifferential(t *testing.T) {
	for _, msg := range differentialCorpus() {
		for cut := 0; cut <= len(msg); cut++ {
			checkFrameAgainstBuild(t, msg[:cut])
		}
	}
	for _, msg := range framingCorpus() {
		for cut := 0; cut <= len(msg); cut++ {
			checkAgainstOracle(t, msg[:cut])
			checkFrameAgainstBuild(t, msg[:cut])
		}
	}
	for _, total := range []int{MaxHeaderBytes, MaxHeaderBytes + 1} {
		fill := strings.Repeat("f", total-len("X-Fill: ")-len("Content-Length: 4"))
		msg := []byte("GET / HTTP/1.1\r\nX-Fill: " + fill + "\r\nContent-Length: 4\r\n\r\nbody")
		checkFrameAgainstBuild(t, msg)
		checkFrameAgainstBuild(t, msg[:len(msg)-1])
	}
}
