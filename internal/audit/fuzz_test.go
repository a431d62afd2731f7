package audit

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"libseal/internal/asyncall"
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
// arbitrary log images, the parallel segmented pipeline at one and four
// workers must reach the reference verifier's verdict — the same error
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

// manifestSidecars are the sidecar of a 2-shard set holding its creation
// manifest and two periodic ones, and the same sidecar once a trim and a
// compaction rewrote it, holding the compaction's manifest and one more.
func manifestSidecars(t testing.TB) [][]byte {
	e := newAuditEnv(t)
	var s *ShardedLog
	e.call(t, func(env *asyncall.Env) (err error) {
		if s, err = NewSharded(env, e.shardConfig("git", 2)); err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			if err := s.Append(env, keyForShard(s, i%2), "updates", i, fmt.Sprintf("r%d", i%3), "main", fmt.Sprintf("c%d", i), "update"); err != nil {
				return err
			}
			if i%4 == 3 {
				if err := s.WriteManifest(env); err != nil {
					return err
				}
			}
		}
		return nil
	})
	defer s.Close()
	path := filepath.Join(e.dir, ManifestFileName("git"))
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trimDatabase(t, e, s, trimLatest)
	e.call(t, s.Compact)
	e.call(t, func(env *asyncall.Env) error {
		if err := s.Append(env, keyForShard(s, 0), "updates", 8, "r0", "main", "c8", "update"); err != nil {
			return err
		}
		return s.WriteManifest(env)
	})
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{before, after}
}

// FuzzManifestReaders: the sidecar's two readers — readManifests, strict and
// tolerant, and the chunk-fed IncrementalManifestReader, fed the same bytes
// in chunks of the lengths cuts gives (2 bytes each, big-endian, plus one;
// the rest in one chunk) — agree. A sidecar the tolerant reader accepts, the
// incremental one accepts with the same manifests in the same order, stopped
// where the tolerant reader stopped (Offset) with the torn tail buffered
// (Buffered) or refused as one no record can complete; the strict reader
// accepts it exactly when no tail is torn. One
// the tolerant reader refuses, the incremental one refuses, unless it is
// short of the magic. Seeds: a 2-shard
// set's sidecar (creation, periodic and post-compaction manifests), whole
// and cut at record boundaries and mid-record, fed whole, at its record
// boundaries and in 61-byte chunks.
func FuzzManifestReaders(f *testing.F) {
	chunks := func(lens ...int) []byte {
		var cuts []byte
		for _, n := range lens {
			cuts = binary.BigEndian.AppendUint16(cuts, uint16(n-1))
		}
		return cuts
	}
	for i, sidecar := range manifestSidecars(f) {
		ms, err := readManifests(sidecar, false)
		if err != nil || len(ms) != 3-i {
			f.Fatalf("seed sidecar %d holds %d manifests (%v), want %d", i, len(ms), err, 3-i)
		}
		bounds, lens := []int{len(manifestMagic)}, []int{len(manifestMagic)}
		for _, m := range ms {
			n := 5 + len(marshalManifest(m))
			bounds, lens = append(bounds, bounds[len(bounds)-1]+n), append(lens, n)
		}
		for _, end := range []int{len(sidecar), bounds[1], bounds[2] - 7, len(sidecar) - 1, len(manifestMagic) + 3} {
			for _, cuts := range [][]byte{nil, chunks(lens...), chunks(61, 61, 61, 61, 61, 61, 61, 61, 61, 61, 61, 61)} {
				f.Add(sidecar[:end], cuts)
			}
		}
	}
	f.Fuzz(func(t *testing.T, sidecar, cuts []byte) {
		strict, serr := readManifests(sidecar, false)
		tolerant, terr := readManifests(sidecar, true)
		var got []*Manifest
		r := newIncrementalManifestReader(func(m *Manifest, _ record) error { got = append(got, m); return nil })
		var ierr error
		for p := sidecar; len(p) > 0 && ierr == nil; {
			n := len(p)
			if len(cuts) >= 2 {
				n, cuts = min(n, 1+int(binary.BigEndian.Uint16(cuts))), cuts[2:]
			}
			ierr, p = r.Feed(p[:n]), p[n:]
		}
		if serr == nil && (terr != nil || !sameManifests(strict, tolerant)) {
			t.Fatalf("strict accepts %d manifests, tolerant %d (%v)", len(strict), len(tolerant), terr)
		}
		if terr != nil {
			// A sidecar short of its magic may yet become one: the incremental
			// reader waits for the rest.
			if ierr == nil && len(sidecar) >= len(manifestMagic) {
				t.Fatalf("the incremental reader accepts %d manifests of a sidecar the offline reader refuses: %v", len(got), terr)
			}
			return
		}
		end := int64(len(manifestMagic))
		for _, m := range tolerant {
			end += 5 + int64(len(marshalManifest(m)))
		}
		// A header no record can complete (an oversized length) is a torn tail
		// to the tolerant reader and a refusal to the live one, at one place.
		var fe *frameError
		torn := errors.As(ierr, &fe) && fe.torn
		switch {
		case ierr != nil && !torn:
			t.Fatalf("the incremental reader refuses a sidecar the tolerant one accepts: %v", ierr)
		case !sameManifests(got, tolerant):
			t.Fatalf("the incremental reader accepts %d manifests, the tolerant one %d", len(got), len(tolerant))
		case r.Offset() != end || !torn && r.Offset()+int64(r.Buffered()) != int64(len(sidecar)):
			t.Fatalf("the incremental reader stopped at %d with %d bytes buffered; the tolerant one at %d of %d", r.Offset(), r.Buffered(), end, len(sidecar))
		case (serr == nil) != (ierr == nil && r.Buffered() == 0):
			t.Fatalf("strict verdict %v with %d bytes torn (%v)", serr, r.Buffered(), ierr)
		}
	})
}

func sameManifests(a, b []*Manifest) bool {
	return slices.EqualFunc(a, b, func(x, y *Manifest) bool { return bytes.Equal(marshalManifest(x), marshalManifest(y)) })
}
