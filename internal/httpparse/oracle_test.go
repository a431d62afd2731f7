package httpparse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The bufio-based parser as it stood before the Consume and Parse-Bytes
// functions started parsing their input in place, frozen as the reference
// the differential tests compare against. It is not maintained: a deliberate
// change of parsing rules changes this file in the same commit.

func oracleReadLine(br *bufio.Reader, limit int) (string, error) {
	var sb strings.Builder
	for {
		frag, err := br.ReadString('\n')
		sb.WriteString(frag)
		if err != nil {
			if err == io.EOF && sb.Len() > 0 {
				return "", io.ErrUnexpectedEOF
			}
			return "", err
		}
		if strings.HasSuffix(sb.String(), "\n") {
			break
		}
		if sb.Len() > limit {
			return "", ErrTooLarge
		}
	}
	line := sb.String()
	line = strings.TrimSuffix(line, "\n")
	line = strings.TrimSuffix(line, "\r")
	return line, nil
}

func oracleReadHeader(br *bufio.Reader) (*Header, error) {
	h := NewHeader()
	total := 0
	for {
		line, err := oracleReadLine(br, MaxHeaderBytes)
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

func oracleReadBody(br *bufio.Reader, h *Header) ([]byte, error) {
	if strings.EqualFold(h.Get("Transfer-Encoding"), "chunked") {
		var body bytes.Buffer
		for {
			sizeLine, err := oracleReadLine(br, 4096)
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
				if _, err := io.CopyN(&body, br, size); err != nil {
					return nil, err
				}
			}
			// Chunk data is followed by CRLF.
			if _, err := oracleReadLine(br, 16); err != nil {
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
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, err
	}
	return body, nil
}

func oracleReadRequest(br *bufio.Reader) (*Request, error) {
	line, err := oracleReadLine(br, MaxHeaderBytes)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	h, err := oracleReadHeader(br)
	if err != nil {
		return nil, err
	}
	body, err := oracleReadBody(br, h)
	if err != nil {
		return nil, err
	}
	return &Request{Method: parts[0], Path: parts[1], Proto: parts[2], Header: h, Body: body}, nil
}

func oracleReadResponse(br *bufio.Reader) (*Response, error) {
	line, err := oracleReadLine(br, MaxHeaderBytes)
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
	h, err := oracleReadHeader(br)
	if err != nil {
		return nil, err
	}
	body, err := oracleReadBody(br, h)
	if err != nil {
		return nil, err
	}
	return &Response{Proto: parts[0], Status: status, Reason: reason, Header: h, Body: body}, nil
}

func oracleConsumeRequest(b []byte) (*Request, int, error) {
	r := bytes.NewReader(b)
	br := bufio.NewReaderSize(r, len(b)+16)
	req, err := oracleReadRequest(br)
	if err != nil {
		return nil, 0, mapIncomplete(err)
	}
	consumed := len(b) - r.Len() - br.Buffered()
	return req, consumed, nil
}

func oracleConsumeResponse(b []byte) (*Response, int, error) {
	r := bytes.NewReader(b)
	br := bufio.NewReaderSize(r, len(b)+16)
	rsp, err := oracleReadResponse(br)
	if err != nil {
		return nil, 0, mapIncomplete(err)
	}
	consumed := len(b) - r.Len() - br.Buffered()
	return rsp, consumed, nil
}

// The map-based Header as it stood before it became one slice of fields,
// with the CanonicalKey and the fmt-based encoders of that time, frozen as
// the reference TestHeaderDifferential compares against. Like the parsers
// above it is not maintained.

type oracleHeader struct {
	keys []string
	vals map[string][]string
}

func newOracleHeader() *oracleHeader {
	return &oracleHeader{vals: make(map[string][]string)}
}

func oracleCanonicalKey(k string) string {
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

func (h *oracleHeader) Set(k, v string) {
	ck := oracleCanonicalKey(k)
	if _, ok := h.vals[ck]; !ok {
		h.keys = append(h.keys, ck)
	}
	h.vals[ck] = []string{v}
}

func (h *oracleHeader) Add(k, v string) {
	ck := oracleCanonicalKey(k)
	if _, ok := h.vals[ck]; !ok {
		h.keys = append(h.keys, ck)
	}
	h.vals[ck] = append(h.vals[ck], v)
}

func (h *oracleHeader) Get(k string) string {
	vs := h.vals[oracleCanonicalKey(k)]
	if len(vs) == 0 {
		return ""
	}
	return vs[0]
}

func (h *oracleHeader) Has(k string) bool {
	_, ok := h.vals[oracleCanonicalKey(k)]
	return ok
}

func (h *oracleHeader) Del(k string) {
	ck := oracleCanonicalKey(k)
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

func (h *oracleHeader) Keys() []string { return append([]string(nil), h.keys...) }

func (h *oracleHeader) writeTo(w io.Writer) error {
	for _, k := range h.keys {
		for _, v := range h.vals[k] {
			if _, err := fmt.Fprintf(w, "%s: %s\r\n", k, v); err != nil {
				return err
			}
		}
	}
	return nil
}

func (h *oracleHeader) Clone() *oracleHeader {
	out := newOracleHeader()
	for _, k := range h.keys {
		for _, v := range h.vals[k] {
			out.Add(k, v)
		}
	}
	return out
}

// oracleRequestBytes is the Request.Encode of that time into a buffer. It
// set the Content-Length it added on the request's own header; here it is
// set on a copy, so h is left as it was.
func oracleRequestBytes(method, path, proto string, h *oracleHeader, body []byte) []byte {
	var w bytes.Buffer
	fmt.Fprintf(&w, "%s %s %s\r\n", method, path, proto)
	h = h.Clone()
	if len(body) > 0 && !h.Has("Content-Length") && !h.Has("Transfer-Encoding") {
		h.Set("Content-Length", strconv.Itoa(len(body)))
	}
	h.writeTo(&w)
	io.WriteString(&w, "\r\n")
	w.Write(body)
	return w.Bytes()
}

// oracleResponseBytes is the Response.Encode of that time, likewise.
func oracleResponseBytes(proto string, status int, reason string, h *oracleHeader, body []byte) []byte {
	if reason == "" {
		reason = StatusText(status)
	}
	var w bytes.Buffer
	fmt.Fprintf(&w, "%s %d %s\r\n", proto, status, reason)
	h = h.Clone()
	if !h.Has("Content-Length") && !h.Has("Transfer-Encoding") {
		h.Set("Content-Length", strconv.Itoa(len(body)))
	}
	h.writeTo(&w)
	io.WriteString(&w, "\r\n")
	w.Write(body)
	return w.Bytes()
}
