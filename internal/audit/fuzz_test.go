package audit

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/enclave"
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

// sidecarSet is a set's files: each shard's image, then the sidecar.
type sidecarSet struct {
	shards  [][]byte
	sidecar []byte
}

// manifestSets are a 2-shard set holding its creation manifest and two
// periodic ones, and the same set once a trim and a compaction rewrote it,
// its sidecar holding the compaction's manifest and one more; pub is the key
// they are signed with.
func manifestSets(t testing.TB) (sets []sidecarSet, pub *ecdsa.PublicKey) {
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
	files := func() (set sidecarSet) {
		for _, v := range s.Files() {
			img, err := os.ReadFile(v.Path())
			if err != nil {
				t.Fatal(err)
			}
			set.shards = append(set.shards, img)
		}
		set.shards, set.sidecar = set.shards[:len(set.shards)-1], set.shards[len(set.shards)-1]
		return set
	}
	before := files()
	trimDatabase(t, e, s, trimLatest)
	e.call(t, s.Compact)
	e.call(t, func(env *asyncall.Env) error {
		if err := s.Append(env, keyForShard(s, 0), "updates", 8, "r0", "main", "c8", "update"); err != nil {
			return err
		}
		return s.WriteManifest(env)
	})
	return []sidecarSet{before, files()}, e.encl.PublicKey()
}

// sidecarRecords are the payloads of the records in a sidecar that reads
// strictly, and the offsets just past the magic and each record.
func sidecarRecords(t testing.TB, sidecar []byte) (payloads [][]byte, bounds []int) {
	ms, err := readManifests(sidecar, false)
	if err != nil {
		t.Fatal(err)
	}
	bounds = []int{len(manifestMagic)}
	for _, m := range ms {
		payloads = append(payloads, m.payload)
		bounds = append(bounds, bounds[len(bounds)-1]+5+len(m.payload))
	}
	return payloads, bounds
}

// cutChunks encodes chunk lengths as a fuzz input's cuts: 2 bytes each,
// big-endian, the length less one.
func cutChunks(lens ...int) []byte {
	var cuts []byte
	for _, n := range lens {
		cuts = binary.BigEndian.AppendUint16(cuts, uint16(n-1))
	}
	return cuts
}

// feedCuts feeds p to feed in the chunks cuts gives, then the rest in one,
// until feed fails.
func feedCuts(p, cuts []byte, feed func([]byte) error) error {
	for len(p) > 0 {
		n := len(p)
		if len(cuts) >= 2 {
			n, cuts = min(n, 1+int(binary.BigEndian.Uint16(cuts))), cuts[2:]
		}
		if err := feed(p[:n]); err != nil {
			return err
		}
		p = p[n:]
	}
	return nil
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
// set's sidecars (creation, periodic and post-compaction manifests,
// manifestSets), whole and cut at record boundaries and mid-record, fed
// whole, at its record boundaries and in 61-byte chunks.
func FuzzManifestReaders(f *testing.F) {
	sets, _ := manifestSets(f)
	for i, set := range sets {
		sidecar := set.sidecar
		payloads, bounds := sidecarRecords(f, sidecar)
		if len(payloads) != 3-i {
			f.Fatalf("seed sidecar %d holds %d manifests, want %d", i, len(payloads), 3-i)
		}
		lens := []int{len(manifestMagic)}
		for k := 1; k < len(bounds); k++ {
			lens = append(lens, bounds[k]-bounds[k-1])
		}
		for _, end := range []int{len(sidecar), bounds[1], bounds[2] - 7, len(sidecar) - 1, len(manifestMagic) + 3} {
			for _, cuts := range [][]byte{nil, cutChunks(lens...), cutChunks(61, 61, 61, 61, 61, 61, 61, 61, 61, 61, 61, 61)} {
				f.Add(sidecar[:end], cuts)
			}
		}
	}
	f.Fuzz(func(t *testing.T, sidecar, cuts []byte) {
		strict, serr := readManifests(sidecar, false)
		tolerant, terr := readManifests(sidecar, true)
		var got []*Manifest
		r := newIncrementalManifestReader(func(m *Manifest, _ record) error { got = append(got, m); return nil })
		ierr := feedCuts(sidecar, cuts, r.Feed)
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

// FuzzManifestSidecar: the set rule's two sidecar paths reach one verdict on
// any sidecar beside a set's shard files. The offline path is readManifests
// and the replay judged against the shards' commit points, as VerifyPath and
// RecoverSharded run them, strict and tolerant; the chunk-fed one is an
// IncrementalManifestReader feeding a LiveSet that holds the whole shard
// files, fed in the chunks cuts gives (as FuzzManifestReaders), judged once it
// holds every byte (Settle). The live verdict is the tolerant one, and the
// strict one where no torn record is left buffered; a sidecar whose intact
// records hold no manifest is the exception — the live rule asks for one, the
// tolerant replay (recovery's, where the counters vouch for the tail) does
// not. A verdict that passes rests on a chain: the first record links to
// none, each other names the SHA-256 of the payload before it, and each
// signature verifies. Seeds: the sidecars of manifestSets beside their shard
// files (pick chooses the set, mod 2) — whole, cut mid-record and at a record
// boundary, with a middle manifest deleted and with a middle record's
// signature altered.
func FuzzManifestSidecar(f *testing.F) {
	sets, pub := manifestSets(f)
	for i, set := range sets {
		payloads, bounds := sidecarRecords(f, set.sidecar)
		relink := func(edit func([][]byte) [][]byte) []byte { return sidecarOf(edit(slices.Clone(payloads))) }
		seeds := [][]byte{
			set.sidecar,
			set.sidecar[:len(set.sidecar)-7],
			set.sidecar[:bounds[len(bounds)-2]],
			relink(func(ps [][]byte) [][]byte { return slices.Delete(ps, len(ps)-2, len(ps)-1) }),
			relink(func(ps [][]byte) [][]byte {
				ps[len(ps)-2] = bytes.Clone(ps[len(ps)-2])
				ps[len(ps)-2][len(ps[len(ps)-2])-1] ^= 0xff
				return ps
			}),
		}
		for _, sidecar := range seeds {
			for _, cuts := range [][]byte{nil, cutChunks(61, 61, 61, 61, 61, 61, 61, 61, 61, 61, 61, 61)} {
				f.Add(uint8(i), sidecar, cuts)
			}
		}
	}
	// Every commit point of every shard: the replay asks a shard's commit set
	// only about the Seqs the sidecar attests, so keeping them all answers as
	// the points a scan keeps for one sidecar do, and the shards scan once.
	ss := &shardSet{name: "git", shards: 2}
	points := make([][]*commitSet, len(sets))
	for i, set := range sets {
		for k, img := range set.shards {
			cs := &commitSet{pts: []ShardState{{}}}
			if _, err := ss.scanImage(k, img, StreamOptions{VerifyOptions: VerifyOptions{Pub: pub}}, func(si SegmentInfo) error {
				cs.pts = append(cs.pts, ShardState{Seq: si.EndSeq, Counter: si.Counter, Chain: si.Chain})
				return nil
			}); err != nil {
				f.Fatalf("set %d, shard %d: %v", i, k, err)
			}
			points[i] = append(points[i], cs)
		}
	}
	f.Fuzz(func(t *testing.T, pick uint8, sidecar, cuts []byte) {
		set := sets[pick%2]
		offline := func(tolerant bool) (int, error) {
			opts := StreamOptions{VerifyOptions: VerifyOptions{Pub: pub, RecoverTruncated: tolerant}}
			ms, err := readManifests(sidecar, tolerant)
			return len(ms), replayRecords(ss, ms, err, &opts).judge(ss, &opts, points[pick%2], &Report{})
		}
		_, serr := offline(false)
		n, terr := offline(true)

		live := NewLiveSet("git", VerifyOptions{Pub: pub}, len(set.shards), time.Hour)
		r := live.RestartManifests(nil)
		for k, img := range set.shards {
			if v, _ := live.RestartShard(k, nil); v.Feed(img) != nil {
				t.Fatalf("shard %d does not feed", k)
			}
		}
		lerr := feedCuts(sidecar, cuts, r.Feed)
		// A header no record can complete is a torn tail to the tolerant
		// reader and a refusal to the chunk-fed one (FuzzManifestReaders).
		var fe *frameError
		torn := r.Buffered() > 0
		if errors.As(lerr, &fe) && fe.torn {
			lerr, torn = nil, true
		}
		if lerr == nil {
			lerr = live.Settle(true)
		}
		switch {
		case terr == nil && n == 0:
			if lerr == nil {
				t.Fatal("the live rule accepts a sidecar with no intact manifest")
			}
		case (lerr == nil) != (terr == nil):
			t.Fatalf("live verdict %v, tolerant offline verdict %v", lerr, terr)
		case (serr == nil) != (lerr == nil && !torn):
			t.Fatalf("strict offline verdict %v; live verdict %v with a torn tail %v", serr, lerr, torn)
		}
		if lerr != nil {
			return
		}
		ms, _ := readManifests(sidecar, true)
		var prev [32]byte
		for i, m := range ms {
			if m.Prev != prev || !enclave.VerifySignature(pub, manifestDigest("git", m), m.Sig) {
				t.Fatalf("accepted a sidecar whose manifest %d does not link or verify", i)
			}
			prev = sha256.Sum256(m.payload)
		}
	})
}
