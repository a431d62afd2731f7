package audit

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"libseal/internal/sqldb"
)

// fuzzCorpus names the committed FuzzVerifyReader corpus (testdata/fuzz) and
// how each image is made; TestFuzzCorpus -update rewrites it.
func fuzzCorpus(t testing.TB) map[string][]byte {
	key := testKey(t)
	valid := synthLog(t, key, 6, 2)
	var bare bytes.Buffer
	if _, err := WriteSyntheticBatches(&bare, key, []SyntheticBatch{{Counter: 1}}); err != nil {
		t.Fatal(err)
	}
	torn := appendUnsigned(t, valid, 6, 1)
	_, rehashed, _ := rehashedSuffix(t, key)
	return map[string][]byte{
		"valid-batched":   valid,
		"truncated-tail":  valid[:len(valid)-24],
		"torn-entry":      torn[:len(torn)-53],
		"bare-sig":        bare.Bytes(),
		"rehashed-suffix": rehashed,
	}
}

// TestFuzzCorpus keeps the committed corpus in the format the build reads: a
// corpus of another format's images would fuzz nothing but the magic check.
func TestFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzVerifyReader")
	for name, img := range fuzzCorpus(t) {
		path := filepath.Join(dir, name)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", img)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("corpus file missing (%v); run with -update to generate", err)
		}
		if want := fmt.Sprintf("[]byte(%q", fileMagic); !bytes.Contains(data, []byte(want[:len(want)-1])) {
			t.Fatalf("%s is not a format-3 image; run with -update to regenerate", path)
		}
	}
}

// FuzzVerifyReader is a differential fuzzer over the verifier drivers: for
// arbitrary log images, the in-thread driver and the parallel segmented
// pipeline must reach the reference verifier's verdict — the same error
// string, or deeply equal results — in both strict and tolerant mode, every
// rejection must be a classified integrity error, and the chunk-fed driver,
// fed in chunk sizes drawn from the input itself, must agree as far as a
// strict driver without an end-of-stream verdict can (driversAgree). Any
// divergence is a seam an attacker could slip a forged log through (accepted
// by one driver, rejected by another).
func FuzzVerifyReader(f *testing.F) {
	key := testKey(f)
	// Verified under the golden corpus's key: mutants of the golden seeds
	// reach the signature check and the locate pass, every other image's
	// signature records are hash-consistent at best.
	pub := goldenPub(f)
	f.Add([]byte{})
	f.Add([]byte(fileMagic))
	f.Add(synthLog(f, key, 3, 1))
	f.Add(synthLog(f, key, 9, 4))
	f.Add(appendUnsigned(f, synthLog(f, key, 4, 2), 4, 2))
	// A bare signature record and a torn header.
	{
		var buf bytes.Buffer
		if _, err := WriteSyntheticBatches(&buf, key, []SyntheticBatch{{Counter: 1}}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:len(buf.Bytes())-3])
	}
	// The live writer's images, and the one only a signature check rejects.
	for _, v := range goldenVectors {
		img, err := os.ReadFile(filepath.Join(goldenDir, v.name+".lseal"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	_, rehashed, _ := rehashedSuffix(f, key)
	f.Add(rehashed)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Chunk sizes drawn from the input: its own bytes, cycled.
		drawn := []int{1}
		for _, b := range data[:min(len(data), 16)] {
			drawn = append(drawn, 1+int(b))
		}
		for _, tolerant := range []bool{false, true} {
			driversAgree(t, data, VerifyOptions{Pub: pub, RecoverTruncated: tolerant}, []int{1, 4}, drawn)
		}
	})
}

// FuzzCodecRoundTrip checks that the entry codec accepts exactly the
// canonical encodings: any input UnmarshalEntry accepts must re-encode to
// the identical bytes (the hash chain runs over the stored encoding, so a
// non-canonical accepted form would let two different byte strings decode
// to the same entry while chaining differently), whose length size predicts.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(SyntheticEntry(0).Marshal())
	f.Add((&Entry{Seq: 7, Table: "t", Values: []sqldb.Value{sqldb.Null(), sqldb.Int(-1), sqldb.Text("x")}}).Marshal())
	f.Add(unassignedTagEntry(7, 2))
	f.Add(unassignedTagEntry(7, 4))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := UnmarshalEntry(data)
		if err != nil {
			return
		}
		enc := e.Marshal()
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted non-canonical encoding:\n  in:  %x\n  out: %x", data, enc)
		}
		if e.size() != int64(len(enc)) {
			t.Fatalf("size %d, encoding %d bytes", e.size(), len(enc))
		}
		e2, err := UnmarshalEntry(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !bytes.Equal(e2.Marshal(), enc) {
			t.Fatalf("decode not stable:\n  first:  %+v\n  second: %+v", e, e2)
		}
	})
}

// FuzzEntryWalk checks, on arbitrary bytes, that checking an entry without
// building it loses nothing: the validating walk accepts and rejects exactly
// as the materialising one and the frozen decoder do (walkMatches).
func FuzzEntryWalk(f *testing.F) {
	f.Add([]byte{})
	f.Add(SyntheticEntry(0).Marshal())
	f.Add((&Entry{Seq: 7, Table: "t", Values: []sqldb.Value{sqldb.Null(), sqldb.Int(-1), sqldb.Text("x")}}).Marshal())
	f.Add(unassignedTagEntry(7, 2))
	f.Add(unassignedTagEntry(7, 4))
	f.Fuzz(func(t *testing.T, data []byte) { walkMatches(t, "fuzz input", data) })
}
