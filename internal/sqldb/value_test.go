package sqldb

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// randomValue generates an arbitrary Value for property-based tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(3) {
	case 0:
		return Null()
	case 1:
		return Int(r.Int63() - r.Int63())
	default:
		b := make([]byte, r.Intn(12))
		r.Read(b)
		return Text(string(b))
	}
}

type valuePair struct{ A, B Value }

// Generate implements quick.Generator.
func (valuePair) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valuePair{A: randomValue(r), B: randomValue(r)})
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(p valuePair) bool {
		return Compare(p.A, p.B) == -Compare(p.B, p.A)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareReflexive(t *testing.T) {
	f := func(p valuePair) bool {
		return Compare(p.A, p.A) == 0 && Compare(p.B, p.B) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

type valueTriple struct{ A, B, C Value }

// Generate implements quick.Generator.
func (valueTriple) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valueTriple{randomValue(r), randomValue(r), randomValue(r)})
}

func TestCompareTransitive(t *testing.T) {
	f := func(tr valueTriple) bool {
		vals := []Value{tr.A, tr.B, tr.C}
		// Sort the three; then pairwise order must be consistent.
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				if Compare(vals[i], vals[j]) > 0 {
					vals[i], vals[j] = vals[j], vals[i]
				}
			}
		}
		return Compare(vals[0], vals[1]) <= 0 &&
			Compare(vals[1], vals[2]) <= 0 &&
			Compare(vals[0], vals[2]) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupKeyConsistentWithCompare(t *testing.T) {
	// Equal values must have equal group keys; unequal values unequal keys.
	f := func(p valuePair) bool {
		sameKey := string(p.A.appendKey(nil)) == string(p.B.appendKey(nil))
		return sameKey == (Compare(p.A, p.B) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareSQLNullUnknown(t *testing.T) {
	f := func(p valuePair) bool {
		_, ok := CompareSQL(p.A, p.B)
		wantOK := !p.A.IsNull() && !p.B.IsNull()
		return ok == wantOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeOrdering(t *testing.T) {
	// SQLite ordering: NULL < INTEGER < TEXT.
	ordered := []Value{Null(), Int(999999), Text("")}
	for i := 0; i < len(ordered)-1; i++ {
		if Compare(ordered[i], ordered[i+1]) >= 0 {
			t.Errorf("%v not < %v", ordered[i], ordered[i+1])
		}
	}
}

func TestTruth(t *testing.T) {
	cases := []struct {
		v     Value
		truth bool
		known bool
	}{
		{Null(), false, false},
		{Int(0), false, true},
		{Int(1), true, true},
		{Int(-5), true, true},
		{Text("1"), true, true},
		{Text("0"), false, true},
		{Text("abc"), false, true},
	}
	for _, c := range cases {
		truth, known := c.v.Truth()
		if truth != c.truth || known != c.known {
			t.Errorf("Truth(%v) = (%v,%v), want (%v,%v)", c.v, truth, known, c.truth, c.known)
		}
	}
}

func TestFromGo(t *testing.T) {
	cases := []struct {
		in   any
		want Value
	}{
		{nil, Null()},
		{42, Int(42)},
		{int64(-7), Int(-7)},
		{uint8(255), Int(255)},
		{"hi", Text("hi")},
		{true, Int(1)},
		{false, Int(0)},
		{Int(9), Int(9)},
	}
	for _, c := range cases {
		got, err := FromGo(c.in)
		if err != nil {
			t.Errorf("FromGo(%v): %v", c.in, err)
			continue
		}
		if Compare(got, c.want) != 0 {
			t.Errorf("FromGo(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// No value kind holds a float or a byte string (DESIGN.md §15).
	for _, in := range []any{struct{}{}, float32(1), 3.5, []byte{1, 2}} {
		if v, err := FromGo(in); err == nil || !strings.Contains(err.Error(), "unsupported") {
			t.Errorf("FromGo(%T) = %v, %v; want the unsupported-type error", in, v, err)
		}
	}
}

func TestValueStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(42), "42"},
		{Text("x"), "x"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// TestValueSize pins a value, in every stored row and every staged entry, at
// a kind, an int64 and a string header.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Fatalf("sqldb.Value is %d bytes, want 32", n)
	}
}
