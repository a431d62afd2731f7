package audit

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"libseal/internal/enclave"
)

// The reference verifier. referenceVerify is the straight-line sequential
// scan the package shipped before the verifier core existed: parse every
// record, then walk them once applying unseal → decode → sequence → chain →
// signature, then the end-of-stream verdict. It is kept as the oracle the
// differential fuzzer, the corruption matrix and the golden vectors compare
// every production driver against, so it must never be rewritten in terms of
// the code it checks: it shares only the primitives (parseSig, sigDigest,
// checkFreshness, the entry codec) with it. Format 2 added one comparison to
// it — a signature record's link to its predecessor; format 3 changed its
// chain step, written here with crypto/sha256 directly: it collects a batch's
// entry records, headers rebuilt from type and length, and hashes them after
// the head before them at the signature record. It stays eager: it
// ECDSA-checks every signature record, where the production drivers check the
// one a verdict rests on and locate backwards only on failure. Agreement with
// it on every mutation is what shows the deferred check loses nothing.
//
// Its verdicts on the committed golden images are pinned as data in
// testdata/golden/<name>.verdicts (TestGoldenVerdicts), so a change to the
// reference itself is as visible as a change to the code under test.

// referenceRecord is one parsed record of a persisted log file.
type referenceRecord struct {
	typ     byte
	payload []byte
	end     int64 // file offset just past this record
}

// referenceRecords parses the record stream. In tolerant mode a torn tail — a
// truncated record left by a crash mid-append — ends the stream instead of
// failing it; the caller then verifies the intact prefix.
func referenceRecords(r io.Reader, tolerant bool) ([]referenceRecord, error) {
	magic := make([]byte, len(fileMagic))
	n, _ := io.ReadFull(r, magic)
	for i, former := range formerMagics {
		if bytes.Equal(magic[:n], former) {
			return nil, fmt.Errorf("%w: log format %d is not supported; this build reads format 3", ErrTampered, i+1)
		}
	}
	if !bytes.Equal(magic[:n], fileMagic) {
		return nil, fmt.Errorf("%w: bad magic", ErrTampered)
	}
	var recs []referenceRecord
	offset := int64(len(fileMagic))
	var hdr [5]byte
	for {
		_, err := io.ReadFull(r, hdr[:])
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			if tolerant {
				return recs, nil
			}
			return nil, fmt.Errorf("%w: truncated record header", ErrTampered)
		}
		n := binary.BigEndian.Uint32(hdr[1:])
		if n > maxRecordBytes {
			// A length field this large is corruption or hostility, never a
			// record the writers produced; bounding it keeps verification
			// from allocating attacker-chosen amounts of memory.
			if tolerant {
				return recs, nil
			}
			return nil, errOversized(n)
		}
		payload, err := readPayload(r, n)
		if err != nil {
			if tolerant {
				return recs, nil
			}
			return nil, fmt.Errorf("%w: truncated record", ErrTampered)
		}
		offset += 5 + int64(n)
		recs = append(recs, referenceRecord{typ: hdr[0], payload: payload, end: offset})
	}
}

// readPayload is the allocating record read the production framers used
// before they cut records out of blocks in place, kept here, frozen, for the
// reference alone: one buffer per record, a large one grown as bytes arrive.
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

// refResult is a verification's outcome in the reference's shape: the
// verified entries, in file order, beside what a StreamResult reports of the
// scan.
type refResult struct {
	Entries        []*Entry
	Counter        uint64
	CommittedBytes int64
	Batches        int
	MaxBatch       int
	SigHead        [32]byte
	Chain          [32]byte
}

// imageShard is what the drivers are told of an image that belongs to no
// set: shard 0, its freshness judged against the counter the reference
// reads, and no checkpoint sidecar.
var imageShard = shardRef{}

// referenceVerify verifies a persisted log and reports the verified
// counter value and committed prefix length alongside the entries.
func referenceVerify(r io.Reader, opts VerifyOptions) (*refResult, error) {
	recs, err := referenceRecords(r, opts.RecoverTruncated)
	if err != nil {
		return nil, err
	}
	var entries []*Entry
	var chain, sigHead [32]byte
	var batch []byte // the entry records since the last signature record, as stored
	seq := uint64(0)
	// The commit point is the state as of the last valid signature record;
	// with RecoverTruncated, anything after it is crash debris.
	sawSig := false
	commit := struct {
		entries int
		chain   [32]byte
		end     int64
		counter uint64
		sigHead [32]byte
	}{end: int64(len(fileMagic))}
	batches := 0
	maxBatch := 0
	sinceSig := 0
	// tornAt marks where a tolerant scan stopped making sense of entries.
	tornAt := -1
scan:
	for i := range recs {
		rec := recs[i]
		switch rec.typ {
		case recEntry:
			batch = binary.BigEndian.AppendUint32(append(batch, rec.typ), uint32(len(rec.payload)))
			batch = append(batch, rec.payload...)
			e, err := UnmarshalEntry(rec.payload)
			if err != nil {
				if opts.RecoverTruncated {
					tornAt = i
					break scan
				}
				return nil, fmt.Errorf("%w: %v", ErrTampered, err)
			}
			if e.Seq != seq {
				if opts.RecoverTruncated {
					tornAt = i
					break scan
				}
				return nil, fmt.Errorf("%w: sequence gap at %d", ErrTampered, seq)
			}
			seq++
			sinceSig++
			entries = append(entries, e)
		case recSig:
			if len(batch) > 0 {
				chain = sha256.Sum256(append(chain[:], batch...))
				batch = batch[:0]
			}
			// Every signature record is validated, not just the final
			// commit point: a batched log with a corrupt or forged
			// intermediate signature is not the log the enclave wrote,
			// even when the entries themselves still chain.
			// Counter values may legitimately regress between records (a
			// recovery that re-anchored on a rebuilt counter group), so
			// rollback is judged against the live group, not file-locally.
			sr, perr := parseSig(rec.payload)
			counter := sr.counter
			bad := ""
			switch {
			case perr != nil:
				bad = perr.Error()
			case sr.chain != chain:
				bad = "chain hash mismatch"
			case sr.prev != sigHead:
				bad = "signature link mismatch"
			case opts.Pub != nil && !enclave.VerifySignature(opts.Pub, sigDigest(sr.chain, counter, sr.prev), sr.sig):
				bad = "signature invalid"
			}
			if bad != "" {
				if opts.RecoverTruncated {
					tornAt = i
					break scan
				}
				return nil, fmt.Errorf("%w: signature record %d: %s", ErrTampered, batches, bad)
			}
			sawSig = true
			sigHead = sha256.Sum256(rec.payload)
			commit.sigHead = sigHead
			commit.entries = len(entries)
			commit.chain = chain
			commit.end = rec.end
			commit.counter = counter
			batches++
			if sinceSig > maxBatch {
				maxBatch = sinceSig
			}
			sinceSig = 0
		default:
			return nil, fmt.Errorf("%w: unknown record type %q", ErrTampered, rec.typ)
		}
	}
	if tornAt >= 0 {
		// A malformed entry is forgivable only as uncommitted debris. Any
		// signature record beyond it proves the damage sits inside the
		// committed prefix — that is tampering, not a torn tail.
		for _, rec := range recs[tornAt+1:] {
			if rec.typ == recSig {
				return nil, fmt.Errorf("%w: corrupted entry inside signed prefix", ErrTampered)
			}
		}
	}
	if !sawSig {
		if len(entries) == 0 || opts.RecoverTruncated {
			// Nothing was ever committed (or only debris survives) — but an
			// empty log still has to satisfy the quorum: if the group's
			// counter has moved, committed history has been rolled away.
			if err := checkFreshness(commit.counter, imageShard.counter, opts); err != nil {
				return nil, err
			}
			return &refResult{CommittedBytes: commit.end}, nil
		}
		return nil, fmt.Errorf("%w: missing signature record", ErrTampered)
	}
	if !opts.RecoverTruncated && sinceSig > 0 {
		// Strict verification demands the file end at a signed prefix:
		// trailing unsigned entries were never committed.
		return nil, fmt.Errorf("%w: %d entries after the last signature record", ErrTampered, sinceSig)
	}
	checkEntries := entries
	if opts.RecoverTruncated {
		checkEntries = entries[:commit.entries]
	}
	if err := checkFreshness(commit.counter, imageShard.counter, opts); err != nil {
		return nil, err
	}
	return &refResult{
		Entries: checkEntries, Counter: commit.counter, CommittedBytes: commit.end,
		Batches: batches, MaxBatch: maxBatch, SigHead: commit.sigHead, Chain: commit.chain,
	}, nil
}

// verifyEntries runs the pipeline with one worker over r as shard at and
// returns its result with the entries it delivered to OnSegment.
func verifyEntries(r logSource, opts VerifyOptions, at shardRef) (*StreamResult, []*Entry, error) {
	return streamEntries(r, opts, 1, at)
}

// streamEntries is verifyEntries with the given workers.
func streamEntries(r logSource, opts VerifyOptions, workers int, at shardRef) (*StreamResult, []*Entry, error) {
	sopts, entries := collectEntries(StreamOptions{VerifyOptions: opts, Workers: workers})
	res, err := verifyStream(context.Background(), r, &sopts, at, nil)
	return res, *entries, err
}

// collectEntries returns opts with an OnSegment that appends each segment's
// entries, in delivery order, to the slice it returns.
func collectEntries(opts StreamOptions) (StreamOptions, *[]*Entry) {
	var entries []*Entry
	opts.OnSegment = func(si SegmentInfo) error {
		entries = append(entries, si.Entries()...)
		return nil
	}
	return opts, &entries
}

// resultOf is a driver's verdict in the reference's shape: its result and
// the entries it delivered.
func resultOf(res *StreamResult, entries []*Entry, err error) (*refResult, error) {
	if err != nil {
		return nil, err
	}
	return &refResult{
		Entries: entries, Counter: res.Counter, CommittedBytes: res.CommittedBytes,
		Batches: res.Batches, MaxBatch: res.MaxBatch, SigHead: res.SigHead, Chain: res.Chain,
	}, nil
}

// chunkings are the chunk-size patterns (cycled) every image is fed to the
// chunk-fed driver with, besides any a caller adds: byte by byte, the whole
// image at once, and an irregular mix that splits headers and payloads.
var chunkings = [][]int{{1}, {1 << 30}, {7, 1, 64, 3}}

// feedChunked runs the chunk-fed driver over img in chunks of the given
// sizes, cycled, and returns it with its last commit point and first error.
func feedChunked(img []byte, opts VerifyOptions, sizes []int) (v *IncrementalVerifier, last CommitInfo, err error) {
	v = NewIncrementalVerifier(opts, func(ci CommitInfo) error { last = ci; return nil })
	for i, off := 0, 0; off < len(img) && err == nil; i++ {
		end := min(off+max(1, sizes[i%len(sizes)]), len(img))
		err = v.Feed(img[off:end])
		off = end
	}
	return v, last, err
}

// recordLevel reports whether a reference error was raised by one record's
// own checks — not by framing, an unknown type or the end-of-stream verdict —
// which the strict chunk-fed driver must then raise in the same words.
func recordLevel(err error) bool {
	msg := err.Error()
	for _, s := range []string{"sequence gap at", "malformed log entry", "signature record "} {
		if strings.Contains(msg, s) {
			return true
		}
	}
	return false
}

// driversAgree verifies img with the reference and with both production
// drivers — parallel at each worker count, chunk-fed at each chunking — and
// fails the test unless:
//
//   - parallel reaches the reference's verdict exactly: the same error
//     string, or deeply equal results;
//   - every rejection is classified (wraps ErrTampered or ErrBadCounter);
//   - the chunk-fed driver, which is strict, checks no freshness and has no
//     end-of-stream verdict, agrees as far as that lets it. Where the strict
//     reference accepts, it raises no error, buffers nothing, has received
//     the whole image and reports the same Seq, Counter, Batches and
//     MaxBatch. Where the strict reference rejects as tampered, it errors
//     (wrapping ErrTampered) or its last commit point stops short of the
//     image; if the reference's error is one record's own, it raises the
//     identical string. Where the tolerant reference accepts, its last commit
//     point is the reference's committed prefix, under the same counter.
//
// The parallel driver's entries are those it delivered to OnSegment. It
// returns the shared verdict (the last worker count's
// StreamResult).
func driversAgree(t testing.TB, img []byte, opts VerifyOptions, workers []int, extra ...[]int) (*refResult, *StreamResult, error) {
	t.Helper()
	ref, refErr := referenceVerify(bytes.NewReader(img), opts)
	if refErr != nil && !errors.Is(refErr, ErrTampered) && !errors.Is(refErr, ErrBadCounter) {
		t.Fatalf("unclassified verification error: %v", refErr)
	}
	same := func(driver string, res *refResult, err error) {
		t.Helper()
		if (refErr == nil) != (err == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("verdict mismatch:\n  reference: %v\n  %s: %v", refErr, driver, err)
		}
		if err == nil && !reflect.DeepEqual(ref, res) {
			t.Fatalf("result mismatch:\n  reference: %+v\n  %s: %+v", ref, driver, res)
		}
	}
	// A driver's TotalEntries is its Seq: it must count what it delivered.
	delivered := func(driver string, res *StreamResult, entries []*Entry, err error) {
		t.Helper()
		got, err := resultOf(res, entries, err)
		same(driver, got, err)
		if err == nil && res.TotalEntries != len(entries) {
			t.Fatalf("%s: TotalEntries %d, %d entries delivered", driver, res.TotalEntries, len(entries))
		}
	}
	var par *StreamResult
	for _, w := range workers {
		res, entries, err := streamEntries(bytes.NewReader(img), opts, w, imageShard)
		delivered(fmt.Sprintf("parallel/%d", w), res, entries, err)
		par = res
	}
	for _, sizes := range append(chunkings, extra...) {
		v, last, err := feedChunked(img, opts, sizes)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("chunk-fed %v: %s\n  reference: %v %+v\n  chunk-fed: %v, last commit %+v", sizes, fmt.Sprintf(format, args...), refErr, ref, err, last)
		}
		if err != nil && !errors.Is(err, ErrTampered) {
			fail("unclassified error")
		}
		committed := max(last.Offset, int64(len(fileMagic)))
		switch {
		case opts.RecoverTruncated:
			if refErr == nil && (committed != ref.CommittedBytes || last.Counter != ref.Counter) {
				fail("committed prefix differs from the tolerant reference's")
			}
		case refErr == nil:
			if err != nil || v.Buffered() != 0 || v.Offset() != int64(len(img)) {
				fail("did not take in an image the strict reference accepts")
			}
			if v.Seq() != uint64(len(ref.Entries)) || v.Counter() != ref.Counter ||
				v.Batches() != ref.Batches || v.led.cur.maxBatch != ref.MaxBatch {
				fail("seq=%d counter=%d batches=%d max_batch=%d", v.Seq(), v.Counter(), v.Batches(), v.led.cur.maxBatch)
			}
			tables := map[string]int{}
			for _, e := range ref.Entries {
				tables[e.Table]++
			}
			if !maps.Equal(v.Tables(), tables) {
				fail("tables %v, the reference's entries %v", v.Tables(), tables)
			}
		case errors.Is(refErr, ErrTampered):
			if err == nil && last.Offset >= int64(len(img)) && len(img) > 0 {
				fail("committed an image the strict reference rejects")
			}
			if recordLevel(refErr) && (err == nil || err.Error() != refErr.Error()) {
				fail("record-level error differs")
			}
		}
	}
	return ref, par, refErr
}

// verdictLine renders one verification outcome as the verdict tables store
// it: the error string, or the result's scalar fields.
func verdictLine(res *refResult, err error) string {
	if err != nil {
		return "err " + err.Error()
	}
	return fmt.Sprintf("ok entries=%d counter=%d committed_bytes=%d batches=%d max_batch=%d",
		len(res.Entries), res.Counter, res.CommittedBytes, res.Batches, res.MaxBatch)
}

// verdictTable computes the reference verifier's verdict on every
// single-byte mutation of img — each offset × {flip, truncate} × {strict,
// tolerant} — run-length encoded by offset range, one line per run:
//
//	<flip|truncate> <strict|tolerant> <first>-<last> <verdict>
func verdictTable(name string, img []byte, opts VerifyOptions) []byte {
	var out bytes.Buffer
	fmt.Fprintf(&out, "# referenceVerify on every single-byte mutation of %s.lseal (%d bytes).\n", name, len(img))
	fmt.Fprintf(&out, "# Regenerate with: go test ./internal/audit -run TestGoldenVerdicts -update\n")
	for _, flip := range []bool{true, false} {
		for _, tolerant := range []bool{false, true} {
			o := opts
			o.RecoverTruncated = tolerant
			mut, mode := "truncate", "strict"
			if flip {
				mut = "flip"
			}
			if tolerant {
				mode = "tolerant"
			}
			first, run := 0, ""
			flush := func(last int) {
				if run != "" {
					fmt.Fprintf(&out, "%s %s %d-%d %s\n", mut, mode, first, last, run)
				}
			}
			for off := 0; off < len(img); off++ {
				v := verdictLine(referenceVerify(bytes.NewReader(mutate(img, off, flip)), o))
				if v != run {
					flush(off - 1)
					first, run = off, v
				}
			}
			flush(len(img) - 1)
		}
	}
	return out.Bytes()
}

// TestGoldenVerdicts pins the reference verifier's behaviour as data: its
// verdict on every single-byte flip and every truncation of each committed
// golden image, in both modes, must equal the committed table byte for byte.
// The tables are regenerated only by -update (after TestGoldenVectors has
// regenerated the images they describe).
func TestGoldenVerdicts(t *testing.T) {
	pub := goldenPub(t)
	for _, v := range goldenVectors {
		v := v
		t.Run(v.name, func(t *testing.T) {
			img, err := os.ReadFile(filepath.Join(goldenDir, v.name+".lseal"))
			if err != nil {
				t.Fatal(err)
			}
			got := verdictTable(v.name, img, VerifyOptions{Pub: pub})
			path := filepath.Join(goldenDir, v.name+".verdicts")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("verdict table missing (%v); run with -update to generate", err)
			}
			if bytes.Equal(got, want) {
				return
			}
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("reference verdicts diverge from %s at line %d:\n  got  %s\n  want %s", path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("reference verdicts diverge from %s: %d lines, committed %d", path, len(gl), len(wl))
		})
	}
}
