// Package sqldb is an embedded relational database engine in the spirit of
// SQLite, built for running inside the LibSEAL enclave. It supports the SQL
// dialect used by the paper's audit schemas, invariants and trimming
// queries (DESIGN.md §15): CREATE TABLE/VIEW, INSERT, DELETE, SELECT with
// inner and natural joins, WHERE, GROUP BY, HAVING, ORDER BY, LIMIT,
// DISTINCT, COUNT/MIN/MAX, scalar and IN/EXISTS subqueries (including
// correlated ones), and `?` parameters, over INTEGER, TEXT and NULL values.
package sqldb

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates runtime value types: the three of SQLite's storage classes
// the audit schemas use. REAL and BLOB are outside the grammar (DESIGN.md
// §15).
type Kind int

const (
	KindNull Kind = iota
	KindInt
	KindText
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindText:
		return "TEXT"
	}
	return "?"
}

// Value is one SQL value.
type Value struct {
	kind Kind
	i    int64
	s    string
}

// Constructors.

// Null returns the SQL NULL value.
func Null() Value { return Value{kind: KindNull} }

// Int returns an INTEGER value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Text returns a TEXT value.
func Text(v string) Value { return Value{kind: KindText, s: v} }

// Bool returns an INTEGER 0/1 value, SQL's boolean representation.
func Bool(v bool) Value {
	if v {
		return Int(1)
	}
	return Int(0)
}

// FromGo converts a Go value into a SQL value. Supported types: nil, bool,
// all int/uint variants, string and Value itself.
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
	case string:
		return Text(x), nil
	default:
		return Null(), fmt.Errorf("sqldb: unsupported parameter type %T", v)
	}
}

// Kind returns the value's storage class.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int64 returns the value as int64 (TEXT parsed, NULL 0).
func (v Value) Int64() int64 {
	switch v.kind {
	case KindInt:
		return v.i
	case KindText:
		n, _ := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		return n
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
	case KindText:
		return v.s
	}
	return ""
}

// Truth implements SQL three-valued logic coercion: NULL is unknown; numeric
// zero is false; everything else follows SQLite's numeric coercion.
func (v Value) Truth() (bool, bool) { // (value, known)
	switch v.kind {
	case KindNull:
		return false, false
	case KindInt:
		return v.i != 0, true
	case KindText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		return err == nil && f != 0, true
	}
	return false, true
}

// String implements fmt.Stringer for debugging and result printing.
func (v Value) String() string {
	if v.kind == KindNull {
		return "NULL"
	}
	return v.TextVal()
}

// Compare orders two values as SQLite orders the storage classes: NULL <
// INTEGER < TEXT, so NULLs order lowest (as in ORDER BY). Use CompareSQL for
// comparison-operator semantics where NULL is unknown.
func Compare(a, b Value) int {
	if a.kind != b.kind {
		return cmp.Compare(a.kind, b.kind)
	}
	switch a.kind {
	case KindInt:
		return cmp.Compare(a.i, b.i)
	case KindText:
		return strings.Compare(a.s, b.s)
	}
	return 0
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
// values share a key iff Compare ranks them equal. Callers build keys in a
// reused buffer and look them up as m[string(buf)], which does not allocate.
func (v Value) appendKey(buf []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(buf, 'n')
	case KindInt:
		return binary.BigEndian.AppendUint64(append(buf, 'i'), uint64(v.i))
	case KindText:
		return append(binary.AppendUvarint(append(buf, 't'), uint64(len(v.s))), v.s...)
	}
	return buf
}
