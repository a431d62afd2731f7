package audit

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"libseal/internal/enclave"
	"libseal/internal/pki"
)

// The reference verifier. referenceVerify is the straight-line sequential
// scan the package shipped before the verifier core existed: parse every
// record, then walk them once applying unseal → decode → sequence → chain →
// signature, then the end-of-stream verdict. It is kept, unchanged, as the
// oracle the differential fuzzer, the corruption matrix and the golden
// vectors compare every production driver against, so it must never be
// rewritten in terms of the code it checks: it shares only the primitives
// (parseSig, chainNext, sigDigest, checkFreshness, the entry codec) with it.
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
	if _, err := io.ReadFull(r, magic); err != nil || !bytes.Equal(magic, fileMagic) {
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

// referenceVerify verifies a persisted log and reports the verified
// counter value and committed prefix length alongside the entries.
func referenceVerify(r io.Reader, opts VerifyOptions) (*VerifyResult, error) {
	recs, err := referenceRecords(r, opts.RecoverTruncated)
	if err != nil {
		return nil, err
	}
	var entries []*Entry
	var chain [32]byte
	seq := uint64(0)
	// The commit point is the state as of the last valid signature record;
	// with RecoverTruncated, anything after it is crash debris.
	sawSig := false
	commit := struct {
		entries int
		chain   [32]byte
		end     int64
		counter uint64
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
			raw := rec.payload
			if opts.Unseal != nil {
				if raw, err = opts.Unseal(raw); err != nil {
					if opts.RecoverTruncated {
						tornAt = i
						break scan
					}
					return nil, fmt.Errorf("%w: unseal: %v", ErrTampered, err)
				}
			}
			e, err := UnmarshalEntry(raw)
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
			chain = chainNext(chain, raw)
			entries = append(entries, e)
		case recSig:
			// Every signature record is validated, not just the final
			// commit point: a batched log with a corrupt or forged
			// intermediate signature is not the log the enclave wrote,
			// even when the entries themselves still chain.
			// Counter values may legitimately regress between records (a
			// recovery that re-anchored on a rebuilt counter group), so
			// rollback is judged against the live group, not file-locally.
			sigChain, counter, sig, perr := parseSig(rec.payload)
			bad := ""
			switch {
			case perr != nil:
				bad = perr.Error()
			case sigChain != chain:
				bad = "chain hash mismatch"
			case opts.Pub != nil && !enclave.VerifySignature(opts.Pub, sigDigest(sigChain, counter), sig):
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
			if err := checkFreshness(commit.counter, opts); err != nil {
				return nil, err
			}
			return &VerifyResult{CommittedBytes: commit.end}, nil
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
	if err := checkFreshness(commit.counter, opts); err != nil {
		return nil, err
	}
	return &VerifyResult{
		Entries: checkEntries, Counter: commit.counter, CommittedBytes: commit.end,
		Batches: batches, MaxBatch: maxBatch,
	}, nil
}

// verdictLine renders one verification outcome as the verdict tables store
// it: the error string, or the result's scalar fields.
func verdictLine(res *VerifyResult, err error) string {
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
	pemData, err := os.ReadFile(filepath.Join(goldenDir, "pub.pem"))
	if err != nil {
		t.Fatalf("golden corpus missing (%v); run with -update to generate", err)
	}
	pub, err := pki.DecodePublicKeyPEM(pemData)
	if err != nil {
		t.Fatal(err)
	}
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
