package audit

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

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

// value kind tags in the serialised form.
const (
	tagNull  byte = 0
	tagInt   byte = 1
	tagFloat byte = 2
	tagText  byte = 3
	tagBlob  byte = 4
)

// Marshal encodes the entry deterministically; the hash chain runs over
// this encoding.
func (e *Entry) Marshal() []byte {
	var buf bytes.Buffer
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
		case sqldb.KindFloat:
			buf.WriteByte(tagFloat)
			binary.BigEndian.PutUint64(u64[:], math.Float64bits(v.Float64()))
			buf.Write(u64[:])
		case sqldb.KindText:
			buf.WriteByte(tagText)
			writeString(&buf, v.TextVal())
		case sqldb.KindBlob:
			buf.WriteByte(tagBlob)
			writeString(&buf, string(v.BlobVal()))
		}
	}
	return buf.Bytes()
}

// UnmarshalEntry decodes an entry produced by Marshal. It reads data in
// place: each string is copied out once, and Values is sized once from the
// claimed count, capped by the bytes that remain (every value takes at least
// its tag byte) so a forged count cannot size an allocation.
func UnmarshalEntry(data []byte) (*Entry, error) {
	if len(data) < 8 {
		return nil, ErrCodec
	}
	e := &Entry{Seq: binary.BigEndian.Uint64(data)}
	table, rest, err := cutString(data[8:])
	if err != nil {
		return nil, err
	}
	e.Table = string(table)
	if len(rest) < 2 {
		return nil, ErrCodec
	}
	n := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	if n > 0 {
		e.Values = make([]sqldb.Value, 0, min(n, len(rest)))
	}
	for i := 0; i < n; i++ {
		if len(rest) == 0 {
			return nil, ErrCodec
		}
		tag := rest[0]
		rest = rest[1:]
		switch tag {
		case tagNull:
			e.Values = append(e.Values, sqldb.Null())
		case tagInt, tagFloat:
			if len(rest) < 8 {
				return nil, ErrCodec
			}
			bits := binary.BigEndian.Uint64(rest)
			rest = rest[8:]
			if tag == tagInt {
				e.Values = append(e.Values, sqldb.Int(int64(bits)))
			} else {
				e.Values = append(e.Values, sqldb.Float(math.Float64frombits(bits)))
			}
		case tagText, tagBlob:
			var b []byte
			if b, rest, err = cutString(rest); err != nil {
				return nil, err
			}
			if tag == tagText {
				e.Values = append(e.Values, sqldb.Text(string(b)))
			} else {
				e.Values = append(e.Values, sqldb.Blob(bytes.Clone(b)))
			}
		default:
			return nil, fmt.Errorf("%w: unknown value tag %d", ErrCodec, tag)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrCodec)
	}
	return e, nil
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
