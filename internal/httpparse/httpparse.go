// Package httpparse implements a small HTTP/1.1 message parser and writer.
// LibSEAL's service-specific modules use it to parse the plaintext request
// and response streams observed at the TLS termination point (§5.1), and the
// simulated Apache/Squid services use it to speak the protocol.
package httpparse

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Errors returned by the parser.
var (
	ErrMalformed = errors.New("httpparse: malformed message")
	ErrTooLarge  = errors.New("httpparse: message exceeds size limit")
)

// MaxHeaderBytes caps the header section size.
const MaxHeaderBytes = 1 << 20

// MaxBodyBytes caps body sizes accepted by the parser (128 MiB, enough for
// the paper's 100 MB content-size sweep).
const MaxBodyBytes = 130 << 20

// Header is an ordered multimap of header fields with case-insensitive keys.
type Header struct {
	keys []string
	vals map[string][]string
}

// NewHeader returns an empty header collection.
func NewHeader() *Header {
	return &Header{vals: make(map[string][]string)}
}

// CanonicalKey normalises a header field name (Foo-Bar style). It works
// byte-wise on ASCII letters only: UTF-8-aware case mapping would expand
// invalid sequences into replacement characters, so a hostile field name
// could grow on every parse/re-encode cycle.
func CanonicalKey(k string) string {
	b := []byte(k)
	upper := true
	for i, c := range b {
		switch {
		case upper && 'a' <= c && c <= 'z':
			b[i] = c - 'a' + 'A'
		case !upper && 'A' <= c && c <= 'Z':
			b[i] = c - 'A' + 'a'
		}
		upper = c == '-'
	}
	return string(b)
}

// Set replaces all values of a field.
func (h *Header) Set(k, v string) {
	ck := CanonicalKey(k)
	if _, ok := h.vals[ck]; !ok {
		h.keys = append(h.keys, ck)
	}
	h.vals[ck] = []string{v}
}

// Add appends a value to a field.
func (h *Header) Add(k, v string) {
	ck := CanonicalKey(k)
	if _, ok := h.vals[ck]; !ok {
		h.keys = append(h.keys, ck)
	}
	h.vals[ck] = append(h.vals[ck], v)
}

// Get returns the first value of a field, or "".
func (h *Header) Get(k string) string {
	vs := h.vals[CanonicalKey(k)]
	if len(vs) == 0 {
		return ""
	}
	return vs[0]
}

// Has reports whether the field is present.
func (h *Header) Has(k string) bool {
	_, ok := h.vals[CanonicalKey(k)]
	return ok
}

// Del removes a field.
func (h *Header) Del(k string) {
	ck := CanonicalKey(k)
	if _, ok := h.vals[ck]; !ok {
		return
	}
	delete(h.vals, ck)
	for i, key := range h.keys {
		if key == ck {
			h.keys = append(h.keys[:i], h.keys[i+1:]...)
			break
		}
	}
}

// Keys returns the field names in first-seen order.
func (h *Header) Keys() []string { return append([]string(nil), h.keys...) }

// writeTo serialises the header section (without the terminating CRLF).
func (h *Header) writeTo(w io.Writer) error {
	for _, k := range h.keys {
		for _, v := range h.vals[k] {
			if _, err := fmt.Fprintf(w, "%s: %s\r\n", k, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Request is a parsed HTTP request.
type Request struct {
	Method string
	Path   string
	Proto  string
	Header *Header
	Body   []byte
}

// Response is a parsed HTTP response.
type Response struct {
	Proto  string
	Status int
	Reason string
	Header *Header
	Body   []byte
}

// NewRequest builds a request with sensible defaults.
func NewRequest(method, path string, body []byte) *Request {
	r := &Request{Method: method, Path: path, Proto: "HTTP/1.1", Header: NewHeader(), Body: body}
	if len(body) > 0 {
		r.Header.Set("Content-Length", strconv.Itoa(len(body)))
	}
	return r
}

// NewResponse builds a response with sensible defaults.
func NewResponse(status int, body []byte) *Response {
	r := &Response{Proto: "HTTP/1.1", Status: status, Reason: StatusText(status), Header: NewHeader(), Body: body}
	r.Header.Set("Content-Length", strconv.Itoa(len(body)))
	return r
}

// StatusText returns the reason phrase for common status codes.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 201:
		return "Created"
	case 204:
		return "No Content"
	case 301:
		return "Moved Permanently"
	case 302:
		return "Found"
	case 304:
		return "Not Modified"
	case 400:
		return "Bad Request"
	case 401:
		return "Unauthorized"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	case 409:
		return "Conflict"
	case 429:
		return "Too Many Requests"
	case 500:
		return "Internal Server Error"
	case 502:
		return "Bad Gateway"
	case 503:
		return "Service Unavailable"
	}
	return "Unknown"
}

// source is where a message is parsed from: a stream (ReadRequest,
// ReadResponse) or a slice held in memory (the Consume and Parse-Bytes
// functions). The request-line, status-line, header-line and body-framing
// rules below are written once against it.
type source interface {
	// line returns the next line without its LF or CRLF terminator: io.EOF
	// at a clean end of input, io.ErrUnexpectedEOF inside a line.
	line() (string, error)
	// take returns the next n bytes: io.EOF when none are left,
	// io.ErrUnexpectedEOF when fewer than n are.
	take(n int64) ([]byte, error)
	// copyTo appends the next n bytes to dst, failing like take.
	copyTo(dst *bytes.Buffer, n int64) error
}

// streamSource parses from a buffered stream; every body is a fresh buffer.
type streamSource struct{ br *bufio.Reader }

func (s streamSource) line() (string, error) {
	line, err := s.br.ReadString('\n')
	if err != nil {
		if err == io.EOF && len(line) > 0 {
			return "", io.ErrUnexpectedEOF
		}
		return "", err
	}
	return trimLineEnd(line), nil
}

func (s streamSource) take(n int64) ([]byte, error) {
	body := make([]byte, n)
	if _, err := io.ReadFull(s.br, body); err != nil {
		return nil, err
	}
	return body, nil
}

func (s streamSource) copyTo(dst *bytes.Buffer, n int64) error {
	_, err := io.CopyN(dst, s.br, n)
	return err
}

// sliceSource parses the slice it is given in place: nothing is buffered or
// copied, and take aliases the input.
type sliceSource struct {
	b   []byte
	pos int
}

func (s *sliceSource) line() (string, error) {
	rest := s.b[s.pos:]
	i := bytes.IndexByte(rest, '\n')
	if i < 0 {
		if len(rest) == 0 {
			return "", io.EOF
		}
		return "", io.ErrUnexpectedEOF
	}
	s.pos += i + 1
	return trimLineEnd(string(rest[:i+1])), nil
}

func (s *sliceSource) take(n int64) ([]byte, error) {
	rest := s.b[s.pos:]
	if int64(len(rest)) < n {
		if len(rest) == 0 {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	s.pos += int(n)
	// The capacity stops at the body's end: appending to it cannot reach the
	// bytes of a pipelined message behind it.
	return rest[:n:n], nil
}

func (s *sliceSource) copyTo(dst *bytes.Buffer, n int64) error {
	chunk, err := s.take(n)
	if err != nil {
		return err
	}
	dst.Write(chunk)
	return nil
}

func trimLineEnd(line string) string {
	line = strings.TrimSuffix(line, "\n")
	return strings.TrimSuffix(line, "\r")
}

func readHeader(src source) (*Header, error) {
	h := NewHeader()
	total := 0
	for {
		line, err := src.line()
		if err != nil {
			return nil, err
		}
		if line == "" {
			return h, nil
		}
		total += len(line)
		if total > MaxHeaderBytes {
			return nil, ErrTooLarge
		}
		colon := strings.IndexByte(line, ':')
		if colon <= 0 {
			return nil, fmt.Errorf("%w: header line %q", ErrMalformed, line)
		}
		key := strings.TrimSpace(line[:colon])
		if key == "" {
			return nil, fmt.Errorf("%w: empty header name in %q", ErrMalformed, line)
		}
		h.Add(key, strings.TrimSpace(line[colon+1:]))
	}
}

func readBody(src source, h *Header) ([]byte, error) {
	if strings.EqualFold(h.Get("Transfer-Encoding"), "chunked") {
		var body bytes.Buffer
		for {
			sizeLine, err := src.line()
			if err != nil {
				return nil, err
			}
			if semi := strings.IndexByte(sizeLine, ';'); semi >= 0 {
				sizeLine = sizeLine[:semi]
			}
			size, err := strconv.ParseInt(strings.TrimSpace(sizeLine), 16, 64)
			if err != nil || size < 0 {
				return nil, fmt.Errorf("%w: chunk size %q", ErrMalformed, sizeLine)
			}
			if int64(body.Len())+size > MaxBodyBytes {
				return nil, ErrTooLarge
			}
			if size > 0 {
				if err := src.copyTo(&body, size); err != nil {
					return nil, err
				}
			}
			// Chunk data is followed by CRLF.
			if _, err := src.line(); err != nil {
				return nil, err
			}
			if size == 0 {
				return body.Bytes(), nil
			}
		}
	}
	cl := h.Get("Content-Length")
	if cl == "" {
		return nil, nil
	}
	n, err := strconv.ParseInt(cl, 10, 64)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("%w: content-length %q", ErrMalformed, cl)
	}
	if n > MaxBodyBytes {
		return nil, ErrTooLarge
	}
	return src.take(n)
}

func readRequest(src source) (*Request, error) {
	line, err := src.line()
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	h, err := readHeader(src)
	if err != nil {
		return nil, err
	}
	body, err := readBody(src, h)
	if err != nil {
		return nil, err
	}
	return &Request{Method: parts[0], Path: parts[1], Proto: parts[2], Header: h, Body: body}, nil
}

func readResponse(src source) (*Response, error) {
	line, err := src.line()
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformed, line)
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("%w: status code %q", ErrMalformed, parts[1])
	}
	reason := ""
	if len(parts) == 3 {
		reason = parts[2]
	}
	h, err := readHeader(src)
	if err != nil {
		return nil, err
	}
	body, err := readBody(src, h)
	if err != nil {
		return nil, err
	}
	return &Response{Proto: parts[0], Status: status, Reason: reason, Header: h, Body: body}, nil
}

// ReadRequest parses one request from the reader.
func ReadRequest(br *bufio.Reader) (*Request, error) { return readRequest(streamSource{br}) }

// ReadResponse parses one response from the reader.
func ReadResponse(br *bufio.Reader) (*Response, error) { return readResponse(streamSource{br}) }

// Encode serialises the request.
func (r *Request) Encode(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s %s %s\r\n", r.Method, r.Path, r.Proto); err != nil {
		return err
	}
	if len(r.Body) > 0 && !r.Header.Has("Content-Length") && !r.Header.Has("Transfer-Encoding") {
		r.Header.Set("Content-Length", strconv.Itoa(len(r.Body)))
	}
	if err := r.Header.writeTo(w); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "\r\n"); err != nil {
		return err
	}
	return writeBody(w, r.Body)
}

// Encode serialises the response.
func (r *Response) Encode(w io.Writer) error {
	reason := r.Reason
	if reason == "" {
		reason = StatusText(r.Status)
	}
	if _, err := fmt.Fprintf(w, "%s %d %s\r\n", r.Proto, r.Status, reason); err != nil {
		return err
	}
	if !r.Header.Has("Content-Length") && !r.Header.Has("Transfer-Encoding") {
		r.Header.Set("Content-Length", strconv.Itoa(len(r.Body)))
	}
	if err := r.Header.writeTo(w); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "\r\n"); err != nil {
		return err
	}
	return writeBody(w, r.Body)
}

// writeBody ends an encoded message. Without a body the blank line already
// did: the peer may have answered and closed by now, so nothing more is
// written to it.
func writeBody(w io.Writer, body []byte) error {
	if len(body) == 0 {
		return nil
	}
	_, err := w.Write(body)
	return err
}

// Bytes serialises the request into a byte slice.
func (r *Request) Bytes() []byte {
	var buf bytes.Buffer
	_ = r.Encode(&buf)
	return buf.Bytes()
}

// Bytes serialises the response into a byte slice.
func (r *Response) Bytes() []byte {
	var buf bytes.Buffer
	_ = r.Encode(&buf)
	return buf.Bytes()
}

// ParseRequestBytes parses a request held fully in memory, in place: with
// Content-Length framing the request's Body aliases b.
func ParseRequestBytes(b []byte) (*Request, error) {
	return readRequest(&sliceSource{b: b})
}

// ParseResponseBytes parses a response held fully in memory, in place: with
// Content-Length framing the response's Body aliases b.
func ParseResponseBytes(b []byte) (*Response, error) {
	return readResponse(&sliceSource{b: b})
}

// Query extracts a query parameter from a request path, without decoding
// (the simulated services use simple token values).
func (r *Request) Query(key string) string {
	q := r.Path
	idx := strings.IndexByte(q, '?')
	if idx < 0 {
		return ""
	}
	for _, kv := range strings.Split(q[idx+1:], "&") {
		if eq := strings.IndexByte(kv, '='); eq >= 0 {
			if kv[:eq] == key {
				return kv[eq+1:]
			}
		} else if kv == key {
			return ""
		}
	}
	return ""
}

// PathOnly returns the request path without the query string.
func (r *Request) PathOnly() string {
	if idx := strings.IndexByte(r.Path, '?'); idx >= 0 {
		return r.Path[:idx]
	}
	return r.Path
}

// ErrIncomplete reports that a buffer does not yet hold a complete message;
// the caller should retry with more data. LibSEAL's pairing logic uses it to
// find message boundaries in the intercepted plaintext stream.
var ErrIncomplete = errors.New("httpparse: incomplete message")

func mapIncomplete(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrIncomplete
	}
	return err
}

// ConsumeRequest parses one complete request from the front of b in place,
// returning the number of bytes it occupied; with Content-Length framing the
// request's Body aliases b. It returns ErrIncomplete when b holds only a
// prefix of a request.
func ConsumeRequest(b []byte) (*Request, int, error) {
	src := sliceSource{b: b}
	req, err := readRequest(&src)
	if err != nil {
		return nil, 0, mapIncomplete(err)
	}
	return req, src.pos, nil
}

// ConsumeResponse parses one complete response from the front of b in place,
// returning the number of bytes it occupied; with Content-Length framing the
// response's Body aliases b. It returns ErrIncomplete when b holds only a
// prefix of a response.
func ConsumeResponse(b []byte) (*Response, int, error) {
	src := sliceSource{b: b}
	rsp, err := readResponse(&src)
	if err != nil {
		return nil, 0, mapIncomplete(err)
	}
	return rsp, src.pos, nil
}

// Clone returns a deep copy of the header collection.
func (h *Header) Clone() *Header {
	out := NewHeader()
	for _, k := range h.keys {
		for _, v := range h.vals[k] {
			out.Add(k, v)
		}
	}
	return out
}

// Clone returns a deep copy of the request (the body slice is shared).
func (r *Request) Clone() *Request {
	out := *r
	out.Header = r.Header.Clone()
	return &out
}
