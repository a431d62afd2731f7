// Package sqldb is an embedded relational database engine in the spirit of
// SQLite, built for running inside the LibSEAL enclave. It supports the SQL
// dialect used by the paper's audit schemas, invariants and trimming
// queries: CREATE TABLE/VIEW, INSERT, UPDATE, DELETE, SELECT with inner/
// left/natural joins, WHERE, GROUP BY, HAVING, ORDER BY, LIMIT/OFFSET,
// DISTINCT, aggregate functions, scalar and IN/EXISTS subqueries (including
// correlated ones), and `?` parameters.
package sqldb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates runtime value types, mirroring SQLite's storage classes.
type Kind int

const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
	KindBlob
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "REAL"
	case KindText:
		return "TEXT"
	case KindBlob:
		return "BLOB"
	}
	return "?"
}

// Value is one SQL value.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    []byte
}

// Constructors.

// Null returns the SQL NULL value.
func Null() Value { return Value{kind: KindNull} }

// Int returns an INTEGER value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a REAL value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Text returns a TEXT value.
func Text(v string) Value { return Value{kind: KindText, s: v} }

// Blob returns a BLOB value (the slice is not copied).
func Blob(v []byte) Value { return Value{kind: KindBlob, b: v} }

// Bool returns an INTEGER 0/1 value, SQL's boolean representation.
func Bool(v bool) Value {
	if v {
		return Int(1)
	}
	return Int(0)
}

// FromGo converts a Go value into a SQL value. Supported types: nil, bool,
// all int/uint variants, float32/64, string, []byte and Value itself.
func FromGo(v any) (Value, error) {
	switch x := v.(type) {
	case nil:
		return Null(), nil
	case Value:
		return x, nil
	case bool:
		return Bool(x), nil
	case int:
		return Int(int64(x)), nil
	case int8:
		return Int(int64(x)), nil
	case int16:
		return Int(int64(x)), nil
	case int32:
		return Int(int64(x)), nil
	case int64:
		return Int(x), nil
	case uint:
		return Int(int64(x)), nil
	case uint8:
		return Int(int64(x)), nil
	case uint16:
		return Int(int64(x)), nil
	case uint32:
		return Int(int64(x)), nil
	case uint64:
		return Int(int64(x)), nil
	case float32:
		return Float(float64(x)), nil
	case float64:
		return Float(x), nil
	case string:
		return Text(x), nil
	case []byte:
		return Blob(x), nil
	default:
		return Null(), fmt.Errorf("sqldb: unsupported parameter type %T", v)
	}
}

// Kind returns the value's storage class.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int64 returns the value as int64 (REAL is truncated, TEXT parsed, NULL 0).
func (v Value) Int64() int64 {
	switch v.kind {
	case KindInt:
		return v.i
	case KindFloat:
		return int64(v.f)
	case KindText:
		n, _ := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		return n
	}
	return 0
}

// Float64 returns the value as float64.
func (v Value) Float64() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	case KindText:
		f, _ := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		return f
	}
	return 0
}

// TextVal returns the value rendered as text.
func (v Value) TextVal() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindText:
		return v.s
	case KindBlob:
		return string(v.b)
	}
	return ""
}

// BlobVal returns the raw bytes of a BLOB (or nil for other kinds).
func (v Value) BlobVal() []byte {
	if v.kind == KindBlob {
		return v.b
	}
	return nil
}

// Truth implements SQL three-valued logic coercion: NULL is unknown; numeric
// zero is false; everything else follows SQLite's numeric coercion.
func (v Value) Truth() (bool, bool) { // (value, known)
	switch v.kind {
	case KindNull:
		return false, false
	case KindInt:
		return v.i != 0, true
	case KindFloat:
		return v.f != 0, true
	case KindText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		return err == nil && f != 0, true
	case KindBlob:
		return false, true
	}
	return false, true
}

// String implements fmt.Stringer for debugging and result printing.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindText:
		return v.s
	case KindBlob:
		return fmt.Sprintf("x'%x'", v.b)
	default:
		return v.TextVal()
	}
}

// typeRank orders storage classes for cross-type comparison, following
// SQLite: NULL < numeric < TEXT < BLOB.
func typeRank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindInt, KindFloat:
		return 1
	case KindText:
		return 2
	case KindBlob:
		return 3
	}
	return 4
}

// Compare orders two values. NULLs order lowest (as in ORDER BY); use
// CompareSQL for comparison-operator semantics where NULL is unknown.
func Compare(a, b Value) int {
	ra, rb := typeRank(a.kind), typeRank(b.kind)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0:
		return 0
	case 1:
		if a.kind == KindInt && b.kind == KindInt {
			switch {
			case a.i < b.i:
				return -1
			case a.i > b.i:
				return 1
			}
			return 0
		}
		af, bf := a.Float64(), b.Float64()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		case math.IsNaN(af) && !math.IsNaN(bf):
			return -1
		case !math.IsNaN(af) && math.IsNaN(bf):
			return 1
		}
		return 0
	case 2:
		return strings.Compare(a.s, b.s)
	default:
		return bytes.Compare(a.b, b.b)
	}
}

// CompareSQL compares with SQL semantics: if either side is NULL the result
// is unknown (ok=false).
func CompareSQL(a, b Value) (cmp int, ok bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	return Compare(a, b), true
}

// appendKey appends v's key to buf: the one encoding behind GROUP BY,
// DISTINCT, hash indexes, IN sets and the subquery cache. Keys are
// self-delimiting, so a tuple's key is its values' keys in order, and two
// values share a key iff Compare ranks them equal — except between an INTEGER
// and a REAL that a float64 cannot tell apart from it, at |v| >= 2^53, which
// every user of the key handles on its own. Callers build keys in a reused
// buffer and look them up as m[string(buf)], which does not allocate.
func (v Value) appendKey(buf []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(buf, 'n')
	case KindInt:
		return binary.BigEndian.AppendUint64(append(buf, 'i'), uint64(v.i))
	case KindFloat:
		// Integral floats key as the equal int and every NaN as one value,
		// mirroring Compare.
		switch {
		case v.f == math.Trunc(v.f) && math.Abs(v.f) < 1e18:
			return binary.BigEndian.AppendUint64(append(buf, 'i'), uint64(int64(v.f)))
		case math.IsNaN(v.f):
			return append(buf, 'N')
		}
		return binary.BigEndian.AppendUint64(append(buf, 'f'), math.Float64bits(v.f))
	case KindText:
		return append(binary.AppendUvarint(append(buf, 't'), uint64(len(v.s))), v.s...)
	case KindBlob:
		return append(binary.AppendUvarint(append(buf, 'b'), uint64(len(v.b))), v.b...)
	}
	return buf
}
