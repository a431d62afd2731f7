package audit

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Record framing. Every persisted stream — a log file, the manifest sidecar —
// is a magic followed by records: a type byte, a 4-byte big-endian payload
// length, the payload. Two framers cut records out of the two kinds of input:
// recordReader pulls them from an io.Reader (offline verification, recovery,
// resume proofs read with ReadAt), recordBuffer reassembles them from bytes
// fed in arbitrary chunks (the live mirror). They share the header decode,
// the size cap and the error strings.

// maxRecordBytes caps a single record's payload length. The writers never
// produce records anywhere near this large; a length field claiming more is
// either corruption or a malicious log, and bounding it keeps a hostile
// input from forcing multi-gigabyte allocations during verification.
const maxRecordBytes = 1 << 28

// streamKind describes one of the two record streams.
type streamKind struct {
	magic  []byte
	former []byte // an earlier format's magic, refused by name
	name   string // names the stream in framing errors
	only   byte   // non-zero: the single record type the stream holds, checked before a payload is read or awaited
}

var (
	logStream      = streamKind{magic: fileMagic, former: formerMagic}
	manifestStream = streamKind{magic: manifestMagic, name: "manifest ", only: recManifest}
)

// checkMagic judges a stream's leading bytes. A format-1 log is named, not
// lumped in with garbage: its signature records carry no link, so this build
// cannot verify it.
func (k *streamKind) checkMagic(got []byte) error {
	switch {
	case bytes.Equal(got, k.magic):
		return nil
	case k.former != nil && bytes.Equal(got, k.former):
		return fmt.Errorf("%w: log format 1 is not supported; this build reads format 2", ErrTampered)
	}
	return fmt.Errorf("%w: bad %smagic", ErrTampered, k.name)
}

func (k *streamKind) unknownType(typ byte) error {
	return fmt.Errorf("%w: unknown %srecord type %q", ErrTampered, k.name, typ)
}

func errOversized(n uint32) error {
	return fmt.Errorf("%w: oversized record (%d bytes)", ErrTampered, n)
}

// header decodes a 5-byte record header, refusing a type a single-type
// stream does not hold. The caller applies the size cap.
func (k *streamKind) header(hdr []byte) (typ byte, n uint32, err error) {
	typ, n = hdr[0], binary.BigEndian.Uint32(hdr[1:5])
	if k.only != 0 && typ != k.only {
		err = k.unknownType(typ)
	}
	return typ, n, err
}

// record is one framed record.
type record struct {
	typ     byte
	payload []byte
	off     int64 // stream offset of the record's header
}

// end is the stream offset just past the record.
func (r record) end() int64 { return r.off + 5 + int64(len(r.payload)) }

// recordReader frames records off an io.Reader.
type recordReader struct {
	r    io.Reader
	kind *streamKind
	off  int64 // stream offset of the next record's header
	hdr  [5]byte
	// torn reports that the last error is one a crash mid-append can leave
	// behind — a short header, a short payload, an implausible length —
	// which tolerant readers treat as the end of the stream.
	torn bool
}

// magic consumes the stream's leading magic.
func (rr *recordReader) magic() error {
	m := make([]byte, len(rr.kind.magic))
	n, _ := io.ReadFull(rr.r, m)
	if err := rr.kind.checkMagic(m[:n]); err != nil {
		return err
	}
	rr.off = int64(len(m))
	return nil
}

// next returns the next record, or io.EOF at a clean end of stream.
func (rr *recordReader) next() (record, error) {
	if _, err := io.ReadFull(rr.r, rr.hdr[:]); err != nil {
		if err == io.EOF {
			return record{}, io.EOF
		}
		return rr.tear(fmt.Errorf("%w: truncated %srecord header", ErrTampered, rr.kind.name))
	}
	typ, n, err := rr.kind.header(rr.hdr[:])
	if err != nil {
		return record{}, err
	}
	if n > maxRecordBytes {
		return rr.tear(errOversized(n))
	}
	payload, err := readPayload(rr.r, n)
	if err != nil {
		return rr.tear(fmt.Errorf("%w: truncated %srecord", ErrTampered, rr.kind.name))
	}
	rec := record{typ: typ, payload: payload, off: rr.off}
	rr.off = rec.end()
	return rec, nil
}

func (rr *recordReader) tear(err error) (record, error) {
	rr.torn = true
	return record{}, err
}

// readPayload reads an n-byte record payload. Large payloads are read
// through a growing buffer rather than allocated up front, so a forged
// length field costs memory proportional to the bytes actually present,
// not to the claim. Short reads return io.ReadFull-style errors.
func readPayload(r io.Reader, n uint32) ([]byte, error) {
	if n <= 1<<16 {
		b := make([]byte, n)
		_, err := io.ReadFull(r, b)
		return b, err
	}
	var buf bytes.Buffer
	got, err := io.Copy(&buf, io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, err
	}
	if got < int64(n) {
		if got == 0 {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	return buf.Bytes(), nil
}

// recordBuffer reassembles records from a stream fed in arbitrary chunks. A
// partial record at the tail is not an error: it waits for the rest. The
// first error latches, and every later feed returns it.
type recordBuffer struct {
	kind   *streamKind
	buf    bytes.Buffer // received, not yet framed
	off    int64        // stream offset of buf's first byte
	body   bool         // the magic is behind us: consumed, or skipped by resumeAt
	failed error
}

// resumeAt positions the buffer mid-stream: bytes will be fed from off
// onward and no magic is expected.
func (rb *recordBuffer) resumeAt(off int64) { rb.off, rb.body = off, true }

// feed appends p and hands every record that is now complete to each, in
// stream order. Payloads are copies; each may retain them.
func (rb *recordBuffer) feed(p []byte, each func(record) error) error {
	if rb.failed != nil {
		return rb.failed
	}
	rb.buf.Write(p)
	if !rb.body {
		if rb.buf.Len() < len(rb.kind.magic) {
			return nil
		}
		if rb.failed = rb.kind.checkMagic(rb.buf.Next(len(rb.kind.magic))); rb.failed != nil {
			return rb.failed
		}
		rb.off, rb.body = int64(len(rb.kind.magic)), true
	}
	for rb.failed == nil {
		b := rb.buf.Bytes()
		if len(b) < 5 {
			break
		}
		typ, n, err := rb.kind.header(b)
		if err == nil && n > maxRecordBytes {
			err = errOversized(n)
		}
		if err == nil {
			if len(b) < 5+int(n) {
				break
			}
			rec := record{typ: typ, payload: append([]byte(nil), b[5:5+n]...), off: rb.off}
			rb.buf.Next(5 + int(n))
			rb.off = rec.end()
			err = each(rec)
		}
		rb.failed = err
	}
	return rb.failed
}
