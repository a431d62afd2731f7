package audit

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
)

// Record framing. Every persisted stream — a log file, the manifest sidecar —
// is a magic followed by records: a type byte, a 4-byte big-endian payload
// length, the payload. One function, cut, frames records in place out of a
// window of the stream — header decode, size cap, the error sentences — and
// the window is filled two ways: recordReader reads an io.Reader a block at a
// time (offline verification, recovery, resume proofs), recordBuffer is fed
// bytes in arbitrary chunks (the live mirror).

// maxRecordBytes caps a single record's payload length. The writers never
// produce records anywhere near this large; a length field claiming more is
// either corruption or a malicious log, and bounding it keeps a hostile
// input from forcing multi-gigabyte allocations during verification.
const maxRecordBytes = 1 << 28

// streamKind describes one of the two record streams.
type streamKind struct {
	magic  []byte
	former [][]byte // earlier formats' magics, oldest first, refused by name
	name   string   // names the stream in framing errors
	only   byte     // non-zero: the single record type the stream holds, checked before a payload is read or awaited
}

var (
	logStream      = streamKind{magic: fileMagic, former: formerMagics}
	manifestStream = streamKind{magic: manifestMagic, former: formerManifestMagics, name: "manifest ", only: recManifest}
)

// checkMagic judges a stream's leading bytes. A stream of an earlier format
// is named, not lumped in with garbage: this build cannot verify it.
func (k *streamKind) checkMagic(got []byte) error {
	if bytes.Equal(got, k.magic) {
		return nil
	}
	for i, f := range k.former {
		if bytes.Equal(got, f) {
			return fmt.Errorf("%w: %sformat %d is not supported; this build reads format %d", ErrTampered, cmp.Or(k.name, "log "), i+1, len(k.former)+1)
		}
	}
	return fmt.Errorf("%w: bad %smagic", ErrTampered, k.name)
}

// frameError is a framing failure: the stream stops parsing as records. torn
// says a crash mid-append can leave it behind — a short header, a short
// payload, an implausible length — so tolerant readers end the stream there.
type frameError struct {
	reason string
	torn   bool
}

func (e *frameError) Error() string { return ErrTampered.Error() + ": " + e.reason }
func (e *frameError) Unwrap() error { return ErrTampered }

// at locates the failure in a log, at the header at off (VerifyError).
func (e *frameError) at(shard int, off int64, batch, record int) error {
	return &VerifyError{Shard: shard, Offset: off, Batch: batch, Record: record, Reason: e.reason, stream: true}
}

func (k *streamKind) unknownType(typ byte) *frameError {
	return &frameError{reason: fmt.Sprintf("unknown %srecord type %q", k.name, typ)}
}

func errOversized(n uint32) error {
	return &frameError{reason: fmt.Sprintf("oversized record (%d bytes)", n), torn: true}
}

// cut frames the record at the head of w by its header alone. size is what
// the record takes as far as w says — 5 until the header is in, more than
// len(w) until the payload is; a whole record's payload aliases w. A type a
// single-type stream does not hold and a length past the cap are refused at
// the header.
func (k *streamKind) cut(w []byte) (typ byte, payload []byte, size int, err error) {
	if len(w) < 5 {
		return 0, nil, 5, nil
	}
	typ = w[0]
	n := binary.BigEndian.Uint32(w[1:5])
	switch {
	case k.only != 0 && typ != k.only:
		return typ, nil, 0, k.unknownType(typ)
	case n > maxRecordBytes:
		return typ, nil, 0, errOversized(n)
	}
	if size = 5 + int(n); size <= len(w) {
		payload = w[5:size:size]
	}
	return typ, payload, size, nil
}

// record is one framed record.
type record struct {
	typ     byte
	payload []byte
	off     int64  // stream offset of the record's header
	raw     []byte // framers only: header and payload, as they lie in the window
}

// end is the stream offset just past the record.
func (r record) end() int64 { return r.off + 5 + int64(len(r.payload)) }

// blockSize is how much of a stream recordReader reads at a time, and so the
// most a parallel scan hands one worker at once (stream.go).
const blockSize = 256 << 10

// recordReader cuts records out of an io.Reader's stream, read a block at a
// time. Records alias their block, which is read into again only once its
// owner hands it back as the spare.
type recordReader struct {
	r     io.Reader
	kind  *streamKind
	size  int    // block size; 0 means blockSize
	buf   []byte // the current block; buf[pos:] is the window, read but not yet cut
	pos   int
	off   int64  // stream offset of buf[pos]
	eof   bool   // r is spent; a read error ends the stream as a truncation does
	spare []byte // a block nothing aliases any more
}

// fill starts a new block: buf[keep:] — the window, and what the caller wants
// kept contiguous before it — moves to its head and the stream is read on
// behind. A carry of more than half a block gets one twice its size, so a
// block grows with the bytes actually read, never with a length a header
// claims. It is the spare, unzeroed, when that is large enough: only what
// this fill copies and reads into it is ever cut.
func (rr *recordReader) fill(keep int) {
	carry, buf := rr.buf[keep:], rr.spare
	if size := max(cmp.Or(rr.size, blockSize), 2*len(carry)); cap(buf) < size {
		buf = make([]byte, size)
		mVerifyBlockAllocs.Inc()
	} else {
		buf = buf[:size]
	}
	rr.spare = nil
	n := copy(buf, carry)
	m, err := io.ReadFull(rr.r, buf[n:])
	rr.eof = err != nil
	rr.buf, rr.pos = buf[:n+m], rr.pos-keep
}

// magic consumes the stream's leading magic.
func (rr *recordReader) magic() error {
	n := len(rr.kind.magic)
	for len(rr.buf)-rr.pos < n && !rr.eof {
		rr.fill(rr.pos)
	}
	w := rr.buf[rr.pos:]
	if err := rr.kind.checkMagic(w[:min(n, len(w))]); err != nil {
		return err
	}
	rr.pos, rr.off = rr.pos+n, int64(n)
	return nil
}

// cut returns the next record in the window; !ok with no error means the
// window holds less than one and more can be read: fill and ask again. The
// error is io.EOF at a clean end of stream.
func (rr *recordReader) cut() (rec record, ok bool, err error) {
	w := rr.buf[rr.pos:]
	typ, payload, size, err := rr.kind.cut(w)
	switch {
	case err != nil:
		return rec, false, err
	case size <= len(w):
		rec = record{typ: typ, payload: payload, off: rr.off, raw: w[:size:size]}
		rr.pos, rr.off = rr.pos+size, rr.off+int64(size)
		return rec, true, nil
	case !rr.eof:
		return rec, false, nil
	case len(w) == 0:
		return rec, false, io.EOF
	case len(w) < 5:
		return rec, false, &frameError{reason: "truncated " + rr.kind.name + "record header", torn: true}
	}
	return rec, false, &frameError{reason: "truncated " + rr.kind.name + "record", torn: true}
}

// next returns the next record, or io.EOF at a clean end of stream.
func (rr *recordReader) next() (record, error) {
	for {
		rec, ok, err := rr.cut()
		if ok || err != nil {
			return rec, err
		}
		rr.fill(rr.pos)
	}
}

// recordBuffer cuts records out of a stream fed in arbitrary chunks, in place:
// only a record that straddles two chunks is copied. A partial record at the
// tail is not an error: it waits for the rest. The first error latches, and
// every later feed returns it.
type recordBuffer struct {
	kind   *streamKind
	buf    []byte // the head of the record (or magic) the last chunk ended inside
	need   int    // what that record takes as far as buf says; buf is topped up to it
	off    int64  // stream offset of the next byte to cut: buf's first, when it holds any
	body   bool   // the magic is behind us: consumed, or skipped by resumeAt
	failed error
}

// resumeAt positions the buffer mid-stream: bytes will be fed from off
// onward and no magic is expected.
func (rb *recordBuffer) resumeAt(off int64) { rb.off, rb.body = off, true }

// feed takes in p and hands every record that is now complete to each, in
// stream order. Payloads alias p (or the straddling record's copy) and are
// valid only during the call to each.
func (rb *recordBuffer) feed(p []byte, each func(record) error) error {
	for rb.failed == nil {
		w := p
		if len(rb.buf) > 0 {
			take := min(rb.need-len(rb.buf), len(p))
			rb.buf = append(rb.buf, p[:take]...)
			p, w = p[take:], rb.buf
		}
		rec, size := record{off: rb.off}, len(rb.kind.magic)
		if rb.body {
			if rec.typ, rec.payload, size, rb.failed = rb.kind.cut(w); rb.failed != nil {
				break
			}
		}
		if size > len(w) {
			if len(rb.buf) == 0 {
				rb.buf, p = append(rb.buf, p...), nil
			}
			if rb.need = size; len(p) == 0 {
				break
			}
			continue
		}
		rb.off += int64(size)
		rec.raw = w[:size:size]
		if len(rb.buf) > 0 {
			rb.buf = rb.buf[:0]
		} else {
			p = p[size:]
		}
		if rb.body {
			rb.failed = each(rec)
		} else {
			rb.failed, rb.body = rb.kind.checkMagic(w[:size]), true
		}
	}
	return rb.failed
}
