// Package httpparse implements a small HTTP/1.1 message parser and writer.
// LibSEAL's core tap uses it to find message boundaries in the plaintext
// request and response streams observed at the TLS termination point, and
// the service-specific modules to parse each request/response pair (§5.1);
// the simulated Apache/Squid services and the clients use it to speak the
// protocol.
package httpparse

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
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

// field is one header field; its key is stored canonical.
type field struct{ key, value string }

// Header is an ordered multimap of header fields with case-insensitive keys:
// one slice of fields in which each key's fields sit together, the keys in
// first-seen order. Stored keys are canonical, so two of them name the same
// field exactly when they are equal; a key passed in is matched by ASCII
// case-insensitive comparison, so no lookup allocates.
type Header struct {
	fields []field
}

// NewHeader returns an empty header collection.
func NewHeader() *Header { return &Header{} }

// CanonicalKey normalises a header field name (Foo-Bar style). It works
// byte-wise on ASCII letters only: UTF-8-aware case mapping would expand
// invalid sequences into replacement characters, so a hostile field name
// could grow on every parse/re-encode cycle. A name that is canonical
// already is returned as is, without allocating.
func CanonicalKey(k string) string {
	for i := 0; i < len(k); i++ {
		if canonicalByte(k, i) != k[i] {
			b := []byte(k)
			for ; i < len(b); i++ {
				b[i] = canonicalByte(k, i)
			}
			return string(b)
		}
	}
	return k
}

// canonicalByte is k[i] as CanonicalKey writes it: upper case at the start
// of the name and after a '-', lower case elsewhere.
func canonicalByte(k string, i int) byte {
	c := k[i]
	upper := i == 0 || k[i-1] == '-'
	switch {
	case upper && 'a' <= c && c <= 'z':
		return c - 'a' + 'A'
	case !upper && 'A' <= c && c <= 'Z':
		return c - 'A' + 'a'
	}
	return c
}

// sameKey reports whether b names the field a: equal but for the case of
// ASCII letters, the equivalence CanonicalKey defines. strings.EqualFold
// would not do: it also folds U+212A KELVIN SIGN to 'k' and U+017F LONG S
// to 's'.
func sameKey[T string | []byte](a string, b T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		if lowerASCII(a[i]) != lowerASCII(b[i]) {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c - 'A' + 'a'
	}
	return c
}

// index returns the position of k's first field, or -1.
func (h *Header) index(k string) int {
	for i, f := range h.fields {
		if sameKey(f.key, k) {
			return i
		}
	}
	return -1
}

// end returns the position just past the fields of the key at i.
func (h *Header) end(i int) int {
	j := i + 1
	for j < len(h.fields) && h.fields[j].key == h.fields[i].key {
		j++
	}
	return j
}

// Set replaces all values of a field, keeping its position.
func (h *Header) Set(k, v string) {
	i := h.index(k)
	if i < 0 {
		h.fields = append(h.fields, field{CanonicalKey(k), v})
		return
	}
	h.fields[i].value = v
	h.fields = slices.Delete(h.fields, i+1, h.end(i))
}

// Add appends a value to a field.
func (h *Header) Add(k, v string) {
	i := h.index(k)
	if i < 0 {
		h.fields = append(h.fields, field{CanonicalKey(k), v})
		return
	}
	h.fields = slices.Insert(h.fields, h.end(i), field{h.fields[i].key, v})
}

// Get returns the first value of a field, or "".
func (h *Header) Get(k string) string {
	if i := h.index(k); i >= 0 {
		return h.fields[i].value
	}
	return ""
}

// Has reports whether the field is present.
func (h *Header) Has(k string) bool { return h.index(k) >= 0 }

// Del removes a field.
func (h *Header) Del(k string) {
	if i := h.index(k); i >= 0 {
		h.fields = slices.Delete(h.fields, i, h.end(i))
	}
}

// Keys returns the field names in first-seen order.
func (h *Header) Keys() []string {
	var keys []string
	for i, f := range h.fields {
		if i == 0 || f.key != h.fields[i-1].key {
			keys = append(keys, f.key)
		}
	}
	return keys
}

// Clone returns a deep copy of the header collection.
func (h *Header) Clone() *Header { return &Header{fields: slices.Clone(h.fields)} }

// groupScan is the most fields group puts in order by pairwise comparison.
const groupScan = 16

// group moves every key's fields next to the key's first one, the order Add
// keeps: the parser appends fields as they arrive. A key that comes back
// after another is rare, and with few fields a pairwise scan finds it
// without allocating; with more, a hostile header would make that scan
// quadratic, so a stable sort does the work.
func (h *Header) group() {
	fs := h.fields
	if len(fs) > groupScan {
		h.groupSorted()
		return
	}
	for i := 2; i < len(fs); i++ {
		if fs[i].key == fs[i-1].key {
			continue
		}
		for j := i - 2; j >= 0; j-- {
			if fs[j].key == fs[i].key {
				// fs[:i] is grouped, so j ends fs[i]'s key's fields.
				f := fs[i]
				copy(fs[j+2:i+1], fs[j+1:i])
				fs[j+1] = f
				break
			}
		}
	}
}

func (h *Header) groupSorted() {
	type ref struct {
		f         field
		at, first int // arrival position; the key's first arrival position
	}
	refs := make([]ref, len(h.fields))
	for i, f := range h.fields {
		refs[i] = ref{f: f, at: i}
	}
	slices.SortFunc(refs, func(a, b ref) int { return cmp.Or(strings.Compare(a.f.key, b.f.key), a.at-b.at) })
	for i := range refs {
		refs[i].first = refs[i].at
		if i > 0 && refs[i].f.key == refs[i-1].f.key {
			refs[i].first = refs[i-1].first
		}
	}
	slices.SortFunc(refs, func(a, b ref) int { return cmp.Or(a.first-b.first, a.at-b.at) })
	for i, r := range refs {
		h.fields[i] = r.f
	}
}

// size is the header section's encoded length, without the terminating CRLF.
func (h *Header) size() int {
	n := 0
	for _, f := range h.fields {
		n += len(f.key) + len(f.value) + len(": \r\n")
	}
	return n
}

// appendTo appends the header section (without the terminating CRLF).
func (h *Header) appendTo(b []byte) []byte {
	for _, f := range h.fields {
		b = append(b, f.key...)
		b = append(b, ": "...)
		b = append(b, f.value...)
		b = append(b, "\r\n"...)
	}
	return b
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

// source is where a message is parsed from: a buffered stream (ReadRequest,
// ReadResponse) or a slice held in memory, parsed in place (the Consume,
// Frame and Parse-Bytes functions). The request-line, status-line,
// header-line and body-framing rules below are written once against it. It
// is one concrete type rather than an interface with two implementations
// because a value called through an interface escapes to the heap, and the
// walk over a slice allocates nothing.
type source struct {
	br   *bufio.Reader // nil when parsing b
	b    []byte
	pos  int
	long []byte // a stream line longer than br's buffer, gathered
}

// line returns the next line without its LF or CRLF terminator: io.EOF at a
// clean end of input, io.ErrUnexpectedEOF inside a line. A line read from a
// stream is valid only until the next call; one cut from a slice aliases it.
func (s *source) line() ([]byte, error) {
	if s.br != nil {
		return s.streamLine()
	}
	rest := s.b[s.pos:]
	i := bytes.IndexByte(rest, '\n')
	if i < 0 {
		if len(rest) == 0 {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	s.pos += i + 1
	return trimLineEnd(rest[:i+1]), nil
}

func (s *source) streamLine() ([]byte, error) {
	line, err := s.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		s.long = append(s.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = s.br.ReadSlice('\n')
			s.long = append(s.long, line...)
		}
		line = s.long
	}
	if err != nil {
		if err == io.EOF && len(line) > 0 {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return trimLineEnd(line), nil
}

// take returns the next n bytes: io.EOF when none are left,
// io.ErrUnexpectedEOF when fewer than n are. From a stream they are a fresh
// buffer; from a slice they alias it.
func (s *source) take(n int64) ([]byte, error) {
	if s.br != nil {
		body := make([]byte, n)
		if _, err := io.ReadFull(s.br, body); err != nil {
			return nil, err
		}
		return body, nil
	}
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

// copyTo appends the next n bytes to dst, failing like take.
func (s *source) copyTo(dst *bytes.Buffer, n int64) error {
	if s.br != nil {
		_, err := io.CopyN(dst, s.br, n)
		return err
	}
	chunk, err := s.take(n)
	if err != nil {
		return err
	}
	dst.Write(chunk)
	return nil
}

func trimLineEnd(line []byte) []byte {
	line = bytes.TrimSuffix(line, []byte("\n"))
	return bytes.TrimSuffix(line, []byte("\r"))
}

// framing is how a message's body is delimited — by its first
// Transfer-Encoding field, else by its first Content-Length field — decided
// as the header walk passes those fields, so that it keeps no field's bytes
// and works the same whether or not the header is built.
type framing struct {
	teSeen, clSeen bool
	chunked        bool
	length         int64 // -1 without a Content-Length, or with an empty one
	lengthErr      error // a Content-Length that is not a length: the error once the header section is whole
	watched        bool  // the field the caller asked about is present
}

func (f *framing) see(key, value []byte) {
	switch {
	case !f.teSeen && sameKey("Transfer-Encoding", key):
		f.teSeen = true
		f.chunked = bytes.EqualFold(value, []byte("chunked"))
	case !f.clSeen && sameKey("Content-Length", key):
		f.clSeen = true
		if len(value) == 0 {
			return
		}
		n, err := strconv.ParseInt(string(value), 10, 64)
		switch {
		case err != nil || n < 0:
			f.lengthErr = fmt.Errorf("%w: content-length %q", ErrMalformed, value)
		case n > MaxBodyBytes:
			f.lengthErr = ErrTooLarge
		default:
			f.length = n
		}
	}
}

// readHeader walks a header section through its blank line, deciding the
// body's framing and noting whether a field named watch ("" for none) is
// present. With h non-nil it also adds every field to h.
func readHeader(src *source, h *Header, watch string) (framing, error) {
	f := framing{length: -1}
	total := 0
	for {
		line, err := src.line()
		if err != nil {
			return f, err
		}
		if len(line) == 0 {
			if h != nil {
				h.group()
			}
			return f, nil
		}
		total += len(line)
		if total > MaxHeaderBytes {
			return f, ErrTooLarge
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			return f, fmt.Errorf("%w: header line %q", ErrMalformed, line)
		}
		key := bytes.TrimSpace(line[:colon])
		if len(key) == 0 {
			return f, fmt.Errorf("%w: empty header name in %q", ErrMalformed, line)
		}
		f.see(key, bytes.TrimSpace(line[colon+1:]))
		if watch != "" && sameKey(watch, key) {
			f.watched = true
		}
		if h != nil {
			// One string per line; the key and value are cut from it.
			s := string(line)
			h.fields = append(h.fields, field{CanonicalKey(strings.TrimSpace(s[:colon])), strings.TrimSpace(s[colon+1:])})
		}
	}
}

// readBody reads the body f frames. With build false it only steps over
// it, and returns nil.
func readBody(src *source, f framing, build bool) ([]byte, error) {
	if f.chunked {
		var body *bytes.Buffer
		if build {
			body = new(bytes.Buffer)
		}
		var total int64
		for {
			sizeLine, err := src.line()
			if err != nil {
				return nil, err
			}
			if semi := bytes.IndexByte(sizeLine, ';'); semi >= 0 {
				sizeLine = sizeLine[:semi]
			}
			size, err := strconv.ParseInt(string(bytes.TrimSpace(sizeLine)), 16, 64)
			if err != nil || size < 0 {
				return nil, fmt.Errorf("%w: chunk size %q", ErrMalformed, sizeLine)
			}
			if total+size > MaxBodyBytes {
				return nil, ErrTooLarge
			}
			if size > 0 {
				if body != nil {
					err = src.copyTo(body, size)
				} else {
					_, err = src.take(size)
				}
				if err != nil {
					return nil, err
				}
				total += size
			}
			// Chunk data is followed by CRLF.
			if _, err := src.line(); err != nil {
				return nil, err
			}
			if size == 0 {
				if body == nil {
					return nil, nil
				}
				return body.Bytes(), nil
			}
		}
	}
	if f.lengthErr != nil {
		return nil, f.lengthErr
	}
	if f.length < 0 {
		return nil, nil
	}
	body, err := src.take(f.length)
	if !build {
		body = nil
	}
	return body, err
}

// readRequest walks one request from src; it is the one reader of the
// request grammar. With req nil it builds nothing and allocates nothing
// unless the request is malformed, only finding where the request ends;
// otherwise it fills req. Either way it accepts the same inputs, fails with
// the same errors, and reports whether a field named watch is present.
func readRequest(src *source, req *Request, watch string) (bool, error) {
	line, err := src.line()
	if err != nil {
		return false, err
	}
	method, rest, ok1 := bytes.Cut(line, []byte(" "))
	path, proto, ok2 := bytes.Cut(rest, []byte(" "))
	if !ok1 || !ok2 || !bytes.HasPrefix(proto, []byte("HTTP/")) {
		return false, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	var h *Header
	if req != nil {
		s := string(line)
		req.Method = s[:len(method)]
		req.Path = s[len(method)+1 : len(method)+1+len(path)]
		req.Proto = s[len(s)-len(proto):]
		req.Header = NewHeader()
		h = req.Header
	}
	f, err := readHeader(src, h, watch)
	if err != nil {
		return false, err
	}
	body, err := readBody(src, f, req != nil)
	if err != nil {
		return false, err
	}
	if req != nil {
		req.Body = body
	}
	return f.watched, nil
}

// readResponse walks one response from src, as readRequest walks a request.
func readResponse(src *source, rsp *Response) error {
	line, err := src.line()
	if err != nil {
		return err
	}
	proto, rest, ok := bytes.Cut(line, []byte(" "))
	if !ok || !bytes.HasPrefix(proto, []byte("HTTP/")) {
		return fmt.Errorf("%w: status line %q", ErrMalformed, line)
	}
	code, reason, _ := bytes.Cut(rest, []byte(" "))
	status, err := strconv.Atoi(string(code))
	if err != nil {
		return fmt.Errorf("%w: status code %q", ErrMalformed, code)
	}
	var h *Header
	if rsp != nil {
		s := string(line)
		rsp.Proto = s[:len(proto)]
		rsp.Status = status
		rsp.Reason = s[len(s)-len(reason):]
		rsp.Header = NewHeader()
		h = rsp.Header
	}
	f, err := readHeader(src, h, "")
	if err != nil {
		return err
	}
	body, err := readBody(src, f, rsp != nil)
	if err != nil {
		return err
	}
	if rsp != nil {
		rsp.Body = body
	}
	return nil
}

// ReadRequest parses one request from the reader.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	req := new(Request)
	if _, err := readRequest(&source{br: br}, req, ""); err != nil {
		return nil, err
	}
	return req, nil
}

// ReadResponse parses one response from the reader.
func ReadResponse(br *bufio.Reader) (*Response, error) {
	rsp := new(Response)
	if err := readResponse(&source{br: br}, rsp); err != nil {
		return nil, err
	}
	return rsp, nil
}

// Encode writes the request in one Write.
func (r *Request) Encode(w io.Writer) error {
	_, err := w.Write(r.Bytes())
	return err
}

// Encode writes the response in one Write.
func (r *Response) Encode(w io.Writer) error {
	_, err := w.Write(r.Bytes())
	return err
}

// Bytes serialises the request into one buffer of exactly its size. A
// request with a body and neither a Content-Length nor a Transfer-Encoding
// field is given a Content-Length line after its header fields; the
// request's Header is not changed.
func (r *Request) Bytes() []byte {
	var lenLine [40]byte
	length := lenLine[:0]
	if len(r.Body) > 0 {
		length = appendLengthLine(length, r.Header, len(r.Body))
	}
	b := make([]byte, 0, len(r.Method)+len(r.Path)+len(r.Proto)+len("  \r\n")+
		r.Header.size()+len(length)+len("\r\n")+len(r.Body))
	b = append(b, r.Method...)
	b = append(b, ' ')
	b = append(b, r.Path...)
	b = append(b, ' ')
	b = append(b, r.Proto...)
	b = append(b, "\r\n"...)
	return appendTail(b, r.Header, length, r.Body)
}

// Bytes serialises the response into one buffer of exactly its size: it is
// AppendTo(nil).
func (r *Response) Bytes() []byte { return r.AppendTo(nil) }

// AppendTo appends the response's encoding to b and returns the extended
// buffer, growing b at most once, to exactly the size needed. An empty
// Reason is written as StatusText's, and a response with neither a
// Content-Length nor a Transfer-Encoding field is given a Content-Length
// line after its header fields; the response itself is not changed.
func (r *Response) AppendTo(b []byte) []byte {
	reason := r.Reason
	if reason == "" {
		reason = StatusText(r.Status)
	}
	var num [20]byte
	status := strconv.AppendInt(num[:0], int64(r.Status), 10)
	var lenLine [40]byte
	length := appendLengthLine(lenLine[:0], r.Header, len(r.Body))
	if n := len(r.Proto) + len(status) + len(reason) + len("  \r\n") +
		r.Header.size() + len(length) + len("\r\n") + len(r.Body); cap(b)-len(b) < n {
		b = append(make([]byte, 0, len(b)+n), b...)
	}
	b = append(b, r.Proto...)
	b = append(b, ' ')
	b = append(b, status...)
	b = append(b, ' ')
	b = append(b, reason...)
	b = append(b, "\r\n"...)
	return appendTail(b, r.Header, length, r.Body)
}

// appendLengthLine appends the Content-Length line of an n-byte body unless
// h frames the body itself.
func appendLengthLine(dst []byte, h *Header, n int) []byte {
	if h.Has("Content-Length") || h.Has("Transfer-Encoding") {
		return dst
	}
	dst = append(dst, "Content-Length: "...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, "\r\n"...)
}

// appendTail appends what follows a start line: the header fields, the
// added Content-Length line if any, the blank line and the body.
func appendTail(b []byte, h *Header, length, body []byte) []byte {
	b = h.appendTo(b)
	b = append(b, length...)
	b = append(b, "\r\n"...)
	return append(b, body...)
}

// ParseRequestBytes parses a request held fully in memory, in place: with
// Content-Length framing the request's Body aliases b.
func ParseRequestBytes(b []byte) (*Request, error) {
	req := new(Request)
	if _, err := readRequest(&source{b: b}, req, ""); err != nil {
		return nil, err
	}
	return req, nil
}

// ParseResponseBytes parses a response held fully in memory, in place: with
// Content-Length framing the response's Body aliases b.
func ParseResponseBytes(b []byte) (*Response, error) {
	rsp := new(Response)
	if err := readResponse(&source{b: b}, rsp); err != nil {
		return nil, err
	}
	return rsp, nil
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
	src := source{b: b}
	req := new(Request)
	if _, err := readRequest(&src, req, ""); err != nil {
		return nil, 0, mapIncomplete(err)
	}
	return req, src.pos, nil
}

// ConsumeResponse parses one complete response from the front of b in place,
// returning the number of bytes it occupied; with Content-Length framing the
// response's Body aliases b. It returns ErrIncomplete when b holds only a
// prefix of a response.
func ConsumeResponse(b []byte) (*Response, int, error) {
	src := source{b: b}
	rsp := new(Response)
	if err := readResponse(&src, rsp); err != nil {
		return nil, 0, mapIncomplete(err)
	}
	return rsp, src.pos, nil
}

// FrameRequest is ConsumeRequest without building the request: on every
// input it returns the same byte count and error class, and it allocates
// nothing unless the request is malformed. It also reports whether the
// request has a header field named key.
func FrameRequest(b []byte, key string) (n int, has bool, err error) {
	src := source{b: b}
	if has, err = readRequest(&src, nil, key); err != nil {
		return 0, false, mapIncomplete(err)
	}
	return src.pos, has, nil
}

// FrameResponse is ConsumeResponse without building the response, as
// FrameRequest is ConsumeRequest's.
func FrameResponse(b []byte) (int, error) {
	src := source{b: b}
	if err := readResponse(&src, nil); err != nil {
		return 0, mapIncomplete(err)
	}
	return src.pos, nil
}

// Clone returns a deep copy of the request (the body slice is shared).
func (r *Request) Clone() *Request {
	out := *r
	out.Header = r.Header.Clone()
	return &out
}
