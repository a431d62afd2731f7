package audit

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"libseal/internal/sqldb"
)

type randomEntry Entry

// Generate implements quick.Generator for Entry round-trip tests.
func (randomEntry) Generate(r *rand.Rand, _ int) reflect.Value {
	e := randomEntry{
		Seq:   r.Uint64(),
		Table: randString(r, 1+r.Intn(20)),
	}
	n := r.Intn(8)
	for i := 0; i < n; i++ {
		switch r.Intn(3) {
		case 0:
			e.Values = append(e.Values, sqldb.Null())
		case 1:
			e.Values = append(e.Values, sqldb.Int(r.Int63()-r.Int63()))
		default:
			e.Values = append(e.Values, sqldb.Text(randString(r, r.Intn(40))))
		}
	}
	return reflect.ValueOf(e)
}

func randString(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(32 + r.Intn(95))
	}
	return string(b)
}

func TestEntryRoundTripProperty(t *testing.T) {
	f := func(re randomEntry) bool {
		e := Entry(re)
		decoded, err := UnmarshalEntry(e.Marshal())
		if err != nil {
			return false
		}
		if decoded.Seq != e.Seq || decoded.Table != e.Table || len(decoded.Values) != len(e.Values) {
			return false
		}
		for i := range e.Values {
			if sqldb.Compare(decoded.Values[i], e.Values[i]) != 0 {
				return false
			}
			if decoded.Values[i].Kind() != e.Values[i].Kind() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEntryEncodingDeterministic(t *testing.T) {
	e := &Entry{Seq: 7, Table: "updates", Values: []sqldb.Value{sqldb.Int(1), sqldb.Text("x")}}
	a := e.Marshal()
	b := e.Marshal()
	if string(a) != string(b) {
		t.Fatal("encoding not deterministic")
	}
}

func TestUnmarshalGarbageEntry(t *testing.T) {
	for _, b := range [][]byte{nil, {1, 2, 3}, make([]byte, 11)} {
		if _, err := UnmarshalEntry(b); err == nil {
			t.Errorf("UnmarshalEntry(%v) succeeded", b)
		}
	}
	// Trailing bytes are rejected (they would escape the hash chain).
	e := &Entry{Seq: 1, Table: "t"}
	enc := append(e.Marshal(), 0xAA)
	if _, err := UnmarshalEntry(enc); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestBatchChainDiffers(t *testing.T) {
	var zero [32]byte
	e1 := record{typ: recEntry, payload: []byte("entry1")}
	e2 := record{typ: recEntry, payload: []byte("entry2")}
	a := batchChain(zero, []record{e1})
	b := batchChain(zero, []record{e2})
	if a == b {
		t.Fatal("different entries produced equal chain hashes")
	}
	if batchChain(zero, []record{e1, e2}) == batchChain(zero, []record{e2, e1}) {
		t.Fatal("chain is order-insensitive")
	}
	if batchChain(zero, []record{e1, e2}) == batchChain(a, []record{e2}) {
		t.Fatal("chain does not see where a batch ends")
	}
	if batchChain(a, nil) != a {
		t.Fatal("a batch with no entries moved the head")
	}
}

// The decoder UnmarshalEntry replaced, frozen: it read through a
// bytes.Reader, one allocation per field. It is the oracle of
// TestUnmarshalMatchesOldDecoder and must not be edited to follow the decoder
// it checks; only a change of the format itself (tags 2 and 4, REAL and BLOB,
// left it with the value kinds) edits it.
func frozenUnmarshalEntry(data []byte) (*Entry, error) {
	r := bytes.NewReader(data)
	var u64 [8]byte
	if _, err := io.ReadFull(r, u64[:]); err != nil {
		return nil, ErrCodec
	}
	e := &Entry{Seq: binary.BigEndian.Uint64(u64[:])}
	table, err := frozenReadString(r)
	if err != nil {
		return nil, err
	}
	e.Table = table
	var u16 [2]byte
	if _, err := io.ReadFull(r, u16[:]); err != nil {
		return nil, ErrCodec
	}
	n := int(binary.BigEndian.Uint16(u16[:]))
	for i := 0; i < n; i++ {
		tag, err := r.ReadByte()
		if err != nil {
			return nil, ErrCodec
		}
		switch tag {
		case tagNull:
			e.Values = append(e.Values, sqldb.Null())
		case tagInt:
			if _, err := io.ReadFull(r, u64[:]); err != nil {
				return nil, ErrCodec
			}
			e.Values = append(e.Values, sqldb.Int(int64(binary.BigEndian.Uint64(u64[:]))))
		case tagText:
			s, err := frozenReadString(r)
			if err != nil {
				return nil, err
			}
			e.Values = append(e.Values, sqldb.Text(s))
		default:
			return nil, fmt.Errorf("%w: unknown value tag %d", ErrCodec, tag)
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrCodec)
	}
	return e, nil
}

func frozenReadString(r *bytes.Reader) (string, error) {
	var l [4]byte
	if _, err := io.ReadFull(r, l[:]); err != nil {
		return "", ErrCodec
	}
	n := binary.BigEndian.Uint32(l[:])
	if int(n) > r.Len() {
		return "", ErrCodec
	}
	b := make([]byte, n)
	if n > 0 {
		if _, err := io.ReadFull(r, b); err != nil {
			return "", ErrCodec
		}
	}
	return string(b), nil
}

// TestUnmarshalMatchesOldDecoder is the differential check on the in-place
// decoder: on every prefix and every single-byte mutation of a corpus that
// covers the three value kinds and the two unassigned tags, it accepts exactly what the frozen decoder
// accepts, decodes it to the same entry, and rejects the rest with the same
// error value.
func TestUnmarshalMatchesOldDecoder(t *testing.T) {
	same := func(what string, data []byte) {
		t.Helper()
		want, wantErr := frozenUnmarshalEntry(data)
		got, gotErr := UnmarshalEntry(data)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("%s (%x): error %v, frozen decoder %v", what, data, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		sameEntry(t, what, data, got, want)
	}
	eachCodecMutation(same)
}

// sameEntry fails unless got is the entry want, field by field and by
// re-encoding.
func sameEntry(t testing.TB, what string, data []byte, got, want *Entry) {
	t.Helper()
	if got.Seq != want.Seq || got.Table != want.Table || len(got.Values) != len(want.Values) ||
		(got.Values == nil) != (want.Values == nil) || !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Fatalf("%s (%x): decoded %+v, frozen decoder %+v", what, data, got, want)
	}
}

// unassignedTagEntry is a format-3 entry encoding no writer produces: seq in
// table "t", an INTEGER, then one value under tag — 2, a float64's eight
// bytes (once REAL), or 4, a length-prefixed byte string (once BLOB). One
// flipped bit of the tag makes it a valid entry.
func unassignedTagEntry(seq uint64, tag byte) []byte {
	b := (&Entry{Seq: seq, Table: "t", Values: []sqldb.Value{sqldb.Int(1), sqldb.Null()}}).Marshal()
	b = b[:len(b)-1] // the NULL's tag
	if tag == 2 {
		return binary.BigEndian.AppendUint64(append(b, 2), math.Float64bits(0.5))
	}
	return append(b, 4, 0, 0, 0, 2, 0, 255)
}

// TestUnassignedTagsRefused: tags 2 and 4 are no value kind. An entry carrying
// one is malformed to both walks, and a set holding one, signed as any writer
// would sign it, is tampered at that record.
func TestUnassignedTagsRefused(t *testing.T) {
	key := testKey(t)
	for _, tag := range []byte{2, 4} {
		enc := unassignedTagEntry(2, tag)
		if _, _, err := walkEntry(enc, nil); !errors.Is(err, ErrCodec) {
			t.Fatalf("tag %d: walkEntry = %v, want ErrCodec", tag, err)
		}
		if e, err := UnmarshalEntry(enc); !errors.Is(err, ErrCodec) {
			t.Fatalf("tag %d: UnmarshalEntry = %+v, %v, want ErrCodec", tag, e, err)
		}

		var img bytes.Buffer
		w := newSynthWriter(&img, key)
		w.add(SyntheticEntry(0))
		w.add(SyntheticEntry(1))
		if err := w.commit(1); err != nil {
			t.Fatal(err)
		}
		at := w.size
		w.group = append(w.group, record{typ: recEntry, payload: enc})
		if err := w.commit(2); err != nil {
			t.Fatal(err)
		}
		dir, _ := synthSet(t, key, img.Bytes())
		_, err := VerifyPath(context.Background(), dir, StreamOptions{VerifyOptions: VerifyOptions{Pub: &key.PublicKey}})
		var ve *VerifyError
		if !errors.Is(err, ErrTampered) || !errors.As(err, &ve) || ve.Offset != at || ve.Batch != 1 || ve.Record != 0 ||
			!strings.Contains(ve.Reason, fmt.Sprintf("unknown value tag %d", tag)) {
			t.Fatalf("tag %d: VerifyPath = %v, want tampered at byte %d, signature record 1, entry 0", tag, err, at)
		}
	}
}

// eachCodecMutation calls fn with the differential corpus: entries that cover
// the three value kinds and the two unassigned tags, every prefix of each
// encoding and all 255 mutations of every byte of it.
func eachCodecMutation(fn func(what string, data []byte)) {
	corpus := [][]byte{}
	for _, e := range []*Entry{
		{Seq: 0, Table: "t"},
		SyntheticEntry(41),
		{Seq: 7, Table: "kinds", Values: []sqldb.Value{sqldb.Null(), sqldb.Int(-1), sqldb.Text("x")}},
		{Seq: 1 << 40, Table: "", Values: []sqldb.Value{sqldb.Text(""), sqldb.Int(math.MaxInt64)}},
		{Seq: 9, Table: "nulls", Values: []sqldb.Value{sqldb.Null(), sqldb.Null(), sqldb.Int(math.MinInt64)}},
	} {
		corpus = append(corpus, e.Marshal())
	}
	corpus = append(corpus, unassignedTagEntry(7, 2), unassignedTagEntry(7, 4))
	for n, enc := range corpus {
		fn(fmt.Sprintf("entry %d", n), enc)
		for cut := 0; cut < len(enc); cut++ {
			fn(fmt.Sprintf("entry %d prefix %d", n, cut), enc[:cut])
		}
		for off := range enc {
			for x := 1; x < 256; x++ {
				mut := bytes.Clone(enc)
				mut[off] ^= byte(x)
				fn(fmt.Sprintf("entry %d byte %d ^ %#x", n, off, x), mut)
			}
		}
	}
}

// walkMatches is the property the verifier rests on when it checks an entry
// without building it: on data, the validating walk and the materialising
// walk accept alike, return the same sequence number and table and the same
// error value, and what the materialising walk builds is what the frozen
// decoder builds.
func walkMatches(t testing.TB, what string, data []byte) {
	t.Helper()
	want, wantErr := frozenUnmarshalEntry(data)
	seq, table, err := walkEntry(data, nil)
	got := new(Entry)
	mseq, mtable, merr := walkEntry(data, got)
	for _, e := range []error{err, merr} {
		if (wantErr == nil) != (e == nil) || (wantErr != nil && (wantErr.Error() != e.Error() || !errors.Is(e, ErrCodec))) {
			t.Fatalf("%s (%x): walk error %v, frozen decoder %v", what, data, e, wantErr)
		}
	}
	if (err == ErrCodec) != (wantErr == ErrCodec) || (merr == ErrCodec) != (wantErr == ErrCodec) {
		t.Fatalf("%s (%x): walk errors %v and %v are not the frozen decoder's value %v", what, data, err, merr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if seq != mseq || seq != want.Seq || string(table) != want.Table || string(mtable) != want.Table {
		t.Fatalf("%s (%x): walks read seq %d/%d table %q/%q, frozen decoder %d %q", what, data, seq, mseq, table, mtable, want.Seq, want.Table)
	}
	got.Seq, got.Table = mseq, string(mtable)
	sameEntry(t, what, data, got, want)
}

func TestWalkMatchesUnmarshal(t *testing.T) {
	eachCodecMutation(func(what string, data []byte) { walkMatches(t, what, data) })
}
