package audit

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"libseal/internal/sqldb"
)

// ErrCodec indicates a malformed serialised log entry.
var ErrCodec = errors.New("audit: malformed log entry")

// Entry is one audit-log tuple: a row appended to one relation of the
// service's log schema.
type Entry struct {
	Seq    uint64
	Table  string
	Values []sqldb.Value
}

// value kind tags in the serialised form, one per sqldb.Kind. Tags 2 and 4
// are unassigned (no writer ever emitted them) and decode as unknown.
const (
	tagNull byte = 0
	tagInt  byte = 1
	tagText byte = 3
)

// Marshal encodes the entry deterministically: an entry record's payload.
func (e *Entry) Marshal() []byte {
	var buf bytes.Buffer
	buf.Grow(int(e.size()))
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], e.Seq)
	buf.Write(u64[:])
	writeString(&buf, e.Table)
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], uint16(len(e.Values)))
	buf.Write(u16[:])
	for _, v := range e.Values {
		switch v.Kind() {
		case sqldb.KindNull:
			buf.WriteByte(tagNull)
		case sqldb.KindInt:
			buf.WriteByte(tagInt)
			binary.BigEndian.PutUint64(u64[:], uint64(v.Int64()))
			buf.Write(u64[:])
		case sqldb.KindText:
			buf.WriteByte(tagText)
			writeString(&buf, v.TextVal())
		}
	}
	return buf.Bytes()
}

// size is len(e.Marshal()), without encoding.
func (e *Entry) size() int64 {
	n := 14 + len(e.Table) + len(e.Values) // seq, table length, value count, tags
	for _, v := range e.Values {
		switch v.Kind() {
		case sqldb.KindInt:
			n += 8
		case sqldb.KindText:
			n += 4 + len(v.TextVal())
		}
	}
	return int64(n)
}

// UnmarshalEntry decodes an entry produced by Marshal. Every string is copied
// out of data, so the entry outlives it.
func UnmarshalEntry(data []byte) (*Entry, error) {
	e := new(Entry)
	seq, table, err := walkEntry(data, e)
	if err != nil {
		return nil, err
	}
	e.Seq, e.Table = seq, string(table)
	return e, nil
}

// walkEntry is the one reader of Marshal's grammar. It returns the sequence
// number and the table name, which aliases data for the caller to copy or
// intern. With e nil it only validates, allocating nothing; otherwise it also
// builds e.Values — sized once from the claimed count, capped by the
// bytes that remain (every value takes at least its tag byte) so a forged
// count cannot size an allocation. Either way it accepts the same inputs and
// fails with the same error values.
func walkEntry(data []byte, e *Entry) (seq uint64, table []byte, err error) {
	if len(data) < 8 {
		return 0, nil, ErrCodec
	}
	table, rest, err := cutString(data[8:])
	if err != nil {
		return 0, nil, err
	}
	if len(rest) < 2 {
		return 0, nil, ErrCodec
	}
	n := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	if e != nil && n > 0 {
		e.Values = make([]sqldb.Value, 0, min(n, len(rest)))
	}
	for i := 0; i < n; i++ {
		if len(rest) == 0 {
			return 0, nil, ErrCodec
		}
		tag := rest[0]
		rest = rest[1:]
		var val []byte // the value's bytes, past its tag and any length prefix
		switch tag {
		case tagNull:
		case tagInt:
			if len(rest) < 8 {
				return 0, nil, ErrCodec
			}
			val, rest = rest[:8], rest[8:]
		case tagText:
			if val, rest, err = cutString(rest); err != nil {
				return 0, nil, err
			}
		default:
			return 0, nil, fmt.Errorf("%w: unknown value tag %d", ErrCodec, tag)
		}
		if e != nil {
			e.Values = append(e.Values, decodeValue(tag, val))
		}
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("%w: trailing bytes", ErrCodec)
	}
	return binary.BigEndian.Uint64(data), table, nil
}

// decodeValue builds the value walkEntry found under tag, copying val.
func decodeValue(tag byte, val []byte) sqldb.Value {
	switch tag {
	case tagInt:
		return sqldb.Int(int64(binary.BigEndian.Uint64(val)))
	case tagText:
		return sqldb.Text(string(val))
	}
	return sqldb.Null()
}

func writeString(buf *bytes.Buffer, s string) {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(s)))
	buf.Write(l[:])
	buf.WriteString(s)
}

// cutString splits a length-prefixed string off the front of data and returns
// it (aliasing data) with what follows.
func cutString(data []byte) (str, rest []byte, err error) {
	if len(data) < 4 {
		return nil, nil, ErrCodec
	}
	n := binary.BigEndian.Uint32(data)
	if uint64(n) > uint64(len(data)-4) {
		return nil, nil, ErrCodec
	}
	return data[4 : 4+n : 4+n], data[4+n:], nil
}
