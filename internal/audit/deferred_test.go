package audit

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"libseal/internal/asyncall"
	"libseal/internal/faultinject"
	"libseal/internal/pki"
)

// Tests for the deferred signature check (DESIGN.md §13). The production
// drivers ECDSA-check one signature record per verified run and rely on the
// two hash chains for everything before it; these are the images built to
// slip through exactly that, each compared with the eager reference.

// Field offsets inside a signature record's payload (sigPayload).
const (
	sigCounterAt = 32
	sigPrevAt    = 40
	sigRAt       = 72 + 4 // first byte of R, past its length prefix
)

// sigSAt is the offset of S's last byte.
func sigSAt(payload []byte) int { return len(payload) - 1 }

// imageRecords frames a well-formed image.
func imageRecords(t testing.TB, img []byte) []referenceRecord {
	t.Helper()
	recs, err := referenceRecords(bytes.NewReader(img), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		recs[i].payload = bytes.Clone(recs[i].payload)
	}
	return recs
}

// attestedAt is the state img's i-th signature record attests, as a
// manifest attests it.
func attestedAt(t testing.TB, img []byte, i int) ShardState {
	t.Helper()
	recs := imageRecords(t, img)
	v := NewIncrementalVerifier(VerifyOptions{}, nil)
	if err := v.Feed(img[:recs[sigRecords(recs)[i]].end]); err != nil {
		t.Fatal(err)
	}
	return v.led.checkpoint(0).state()
}

// headerOff is the file offset of a record's header.
func (r referenceRecord) headerOff() int64 { return r.end - 5 - int64(len(r.payload)) }

// buildImage is imageRecords' inverse.
func buildImage(recs []referenceRecord) []byte {
	var buf bytes.Buffer
	buf.Write(fileMagic)
	for _, r := range recs {
		writeRecords(&buf, []record{{typ: r.typ, payload: r.payload}})
	}
	return buf.Bytes()
}

// sigRecords lists the indexes of the signature records.
func sigRecords(recs []referenceRecord) []int {
	var out []int
	for i, r := range recs {
		if r.typ == recSig {
			out = append(out, i)
		}
	}
	return out
}

// rehash recomputes, without the key, every chain head and every link the
// signature records carry, so that all hash checks pass whatever was done to
// the records: what an adversary who cannot sign can still repair.
func rehash(recs []referenceRecord) {
	var chain, sigHead [32]byte
	var batch []record
	for _, r := range recs {
		switch r.typ {
		case recEntry:
			batch = append(batch, record{typ: r.typ, payload: r.payload})
		case recSig:
			chain, batch = batchChain(chain, batch), batch[:0]
			copy(r.payload, chain[:])
			copy(r.payload[sigPrevAt:], sigHead[:])
			sigHead = sha256.Sum256(r.payload)
		}
	}
}

// rehashedSuffix alters one entry in the middle of a 10-batch log and repairs
// every hash after it. It returns the image and the ordinal of the first
// signature record whose signature no longer holds.
func rehashedSuffix(t testing.TB, key *ecdsa.PrivateKey) (pristine, tampered []byte, firstBad int) {
	t.Helper()
	pristine = synthLog(t, key, 40, 4)
	recs := imageRecords(t, pristine)
	sigs := sigRecords(recs)
	firstBad = 5
	victim := recs[sigs[firstBad]-2] // an entry of batch 5
	if victim.typ != recEntry {
		t.Fatal("layout changed: expected an entry")
	}
	victim.payload[len(victim.payload)-1] ^= 0x01 // last byte of a text value: still decodes
	rehash(recs)
	return pristine, buildImage(recs), firstBad
}

// rejectedByEveryDriver runs tampered through the parallel driver at 1, 2
// and 4 workers, the chunk-fed one at every chunking,
// and VerifyPath cold and with ResumeAuto over a checkpoint a run over the
// pristine file left at its third commit point, which the set's second
// manifest attests (cases tamper past it), and fails unless each rejects it
// in the reference's words. It returns those words. The resumed scan must
// itself reject the tampering: only a resumed scan that fails with a verdict
// is verified again cold, so one that passed would leave the set clean.
func rejectedByEveryDriver(t *testing.T, pristine, tampered []byte, key *ecdsa.PrivateKey) string {
	t.Helper()
	opts := VerifyOptions{Pub: &key.PublicKey}
	_, _, refErr := driversAgree(t, tampered, opts, []int{1, 2, 4})
	if refErr == nil {
		t.Fatal("the reference accepts the tampered image")
	}
	dir, path := synthSet(t, key, pristine, attestedAt(t, pristine, 2))
	stop := errors.New("stop")
	delivered := 0
	_, err := VerifyPath(context.Background(), dir, StreamOptions{
		VerifyOptions: opts, Workers: 2,
		Checkpoint: &CheckpointConfig{EverySegments: 3},
		OnSegment: func(SegmentInfo) error {
			if delivered++; delivered == 4 {
				return stop
			}
			return nil
		},
	})
	if !errors.Is(err, stop) {
		t.Fatalf("checkpointing run: %v", err)
	}
	if ck, err := LoadCheckpoint(path + ".ckpt"); err != nil || ck.Batches != 3 {
		t.Fatalf("checkpoint: %+v, %v", ck, err)
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, resume := range []bool{false, true} {
		runs, resumes := mVerifyRuns.Value(), mVerifyResumes.Value()
		rep, err := VerifyPath(context.Background(), dir, StreamOptions{
			VerifyOptions: opts, Workers: 2, ResumeAuto: resume,
			OnSegment: func(SegmentInfo) error { return nil },
		})
		if err == nil || err.Error() != setErrPrefix+refErr.Error() {
			t.Fatalf("VerifyPath (resume=%v): %v (resumed=%v)\n  reference: %v", resume, err, rep != nil && rep.Resumed, refErr)
		}
		// Resumed: the resumed scan, then the cold one its verdict calls for.
		runs, resumes = mVerifyRuns.Value()-runs, mVerifyResumes.Value()-resumes
		if want := map[bool]int64{false: 0, true: 1}[resume]; runs != 1+want || resumes != want {
			t.Fatalf("VerifyPath (resume=%v): %d scans, %d resumed; want %d and %d", resume, runs, resumes, 1+want, want)
		}
	}
	return refErr.Error()
}

// TestRehashedSuffixRejected: every hash check passes on this image; only an
// ECDSA check can tell, and the verdict must name the first signature record
// that no longer holds, not the last.
func TestRehashedSuffixRejected(t *testing.T) {
	key := testKey(t)
	pristine, tampered, firstBad := rehashedSuffix(t, key)
	if _, _, err := driversAgree(t, tampered, VerifyOptions{}, []int{2}); err != nil {
		t.Fatalf("without the key the image should pass every hash check: %v", err)
	}
	got := rejectedByEveryDriver(t, pristine, tampered, key)
	if want := fmt.Sprintf("signature record %d: signature invalid", firstBad); !strings.HasSuffix(got, want) {
		t.Fatalf("verdict %q, want ...%s", got, want)
	}
}

// TestIntermediateSignatureFieldsRejected flips one byte in each field of a
// mid-log signature record the entry chain says nothing about.
func TestIntermediateSignatureFieldsRejected(t *testing.T) {
	key := testKey(t)
	pristine := synthLog(t, key, 40, 4)
	const victim = 6
	for _, f := range []struct {
		name string
		at   func(payload []byte) int
		want string
	}{
		{"R", func([]byte) int { return sigRAt }, "signature invalid"},
		{"S", sigSAt, "signature invalid"},
		{"counter", func([]byte) int { return sigCounterAt + 7 }, "signature invalid"},
		{"prev", func([]byte) int { return sigPrevAt + 31 }, "signature link mismatch"},
	} {
		t.Run(f.name, func(t *testing.T) {
			recs := imageRecords(t, pristine)
			p := recs[sigRecords(recs)[victim]].payload
			p[f.at(p)] ^= 0xff
			got := rejectedByEveryDriver(t, pristine, buildImage(recs), key)
			if want := fmt.Sprintf("signature record %d: %s", victim, f.want); !strings.HasSuffix(got, want) {
				t.Fatalf("verdict %q, want ...%s", got, want)
			}
		})
	}
}

// TestSignatureRecordsRearrangedRejected drops, duplicates and swaps
// mid-log signature records, zeroes one's link, and splices in a record from
// the pre-trim image of the same log (same key, valid on its own). The entry
// chain alone notices none of the first two: they are what the link is for.
func TestSignatureRecordsRearrangedRejected(t *testing.T) {
	key := testKey(t)
	pristine := synthLog(t, key, 40, 4)
	for _, c := range []struct {
		name string
		edit func(recs []referenceRecord, sigs []int) []referenceRecord
	}{
		{"dropped", func(recs []referenceRecord, sigs []int) []referenceRecord {
			return append(recs[:sigs[5]:sigs[5]], recs[sigs[5]+1:]...)
		}},
		{"duplicated", func(recs []referenceRecord, sigs []int) []referenceRecord {
			i := sigs[5]
			return append(recs[:i+1:i+1], recs[i:]...)
		}},
		{"swapped", func(recs []referenceRecord, sigs []int) []referenceRecord {
			recs[sigs[5]], recs[sigs[6]] = recs[sigs[6]], recs[sigs[5]]
			return recs
		}},
		{"zero-link", func(recs []referenceRecord, sigs []int) []referenceRecord {
			clear(recs[sigs[5]].payload[sigPrevAt : sigPrevAt+32])
			return recs
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			recs := imageRecords(t, pristine)
			rejectedByEveryDriver(t, pristine, buildImage(c.edit(recs, sigRecords(recs))), key)
		})
	}

	// The splice. A trim that deletes nothing rebuilds the same entries as one
	// batch from zero; written as one batch in the first place, they are
	// under the same chain head, so the pre-trim image's signature record
	// attests the post-trim image's chain head, validly: only its link gives
	// it away.
	t.Run("spliced-from-pre-trim", func(t *testing.T) {
		e := newAuditEnv(t)
		path := filepath.Join(e.dir, "git-shard0.lseal")
		cfg := e.diskConfig("git")
		cfg.BatchMax = 8
		var l *oneShard
		var before []byte
		e.call(t, func(env *asyncall.Env) (err error) {
			if l, err = newOneShard(env, cfg); err != nil {
				return err
			}
			var rows []Row
			for i := 1; i <= 6; i++ {
				rows = append(rows, Row{Table: "updates", Values: []any{i, "r", "main", fmt.Sprintf("c%d", i), "update"}})
			}
			tk, err := l.Stage(env, rows)
			if err != nil {
				return err
			}
			if err := tk.Wait(env); err != nil {
				return err
			}
			if before, err = os.ReadFile(path); err != nil {
				return err
			}
			if err := l.Trim(env, []string{"DELETE FROM updates WHERE time < 0"}); err != nil {
				return err
			}
			return l.Append(env, "updates", 7, "r", "main", "c7", "update")
		})
		l.Close()
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		old, cur := imageRecords(t, before), imageRecords(t, after)
		stale := old[len(old)-1]    // attests the six entries' chain head
		first := sigRecords(cur)[0] // the rewrite's signature record: same head
		if !bytes.Equal(stale.payload[:32], cur[first].payload[:32]) {
			t.Fatal("the trim changed the chain: the splice would be caught by the entry chain alone")
		}
		pub := e.encl.PublicKey()
		for name, recs := range map[string][]referenceRecord{
			"after":      append(cur[:first+1:first+1], append([]referenceRecord{stale}, cur[first+1:]...)...),
			"instead-of": append(cur[:first:first], append([]referenceRecord{stale}, cur[first+1:]...)...),
		} {
			_, _, err := driversAgree(t, buildImage(recs), VerifyOptions{Pub: pub}, []int{1, 2, 4})
			if err == nil || !strings.Contains(err.Error(), "signature link mismatch") {
				t.Fatalf("stale record spliced %s the rewrite's: %v, want a link mismatch", name, err)
			}
		}
	})
}

// TestForgedCheckpointAtUnsignedCommitPoint: a sidecar pointing into the
// re-hashed suffix binds to a record that passes every hash check. Adopting
// it would make the scan's start unvouched; the proof's ECDSA check refuses
// it and the cold scan gives the verdict. The set's last manifest attests
// the pristine log's last commit point, past the forged one, so the set
// driver gets as far as that check before it refuses the sidecar.
func TestForgedCheckpointAtUnsignedCommitPoint(t *testing.T) {
	key := testKey(t)
	pristine, tampered, firstBad := rehashedSuffix(t, key)
	// The chunk-fed driver without a key yields the hash-consistent state.
	v := NewIncrementalVerifier(VerifyOptions{}, nil)
	recs := imageRecords(t, tampered)
	at := recs[sigRecords(recs)[firstBad+1]].end
	if err := v.Feed(tampered[:at]); err != nil {
		t.Fatal(err)
	}
	forged := v.led.checkpoint(0)
	last := attestedAt(t, pristine, len(sigRecords(imageRecords(t, pristine)))-1)
	if last.Seq <= forged.Seq {
		t.Fatalf("no manifest attests past the forged checkpoint's seq %d", forged.Seq)
	}
	dir, path := synthSet(t, key, tampered, last)
	if err := forged.Save(path + ".ckpt"); err != nil {
		t.Fatal(err)
	}
	opts := StreamOptions{VerifyOptions: VerifyOptions{Pub: &key.PublicKey}, Workers: 2}
	if _, err := streamFile(context.Background(), path, opts, forged); !errors.Is(err, ErrCheckpointStale) {
		t.Fatalf("resume from the forged sidecar: %v, want ErrCheckpointStale", err)
	}
	_, cold := referenceVerify(bytes.NewReader(tampered), opts.VerifyOptions)
	opts.ResumeAuto = true
	resumes := mVerifyResumes.Value()
	if _, err := VerifyPath(context.Background(), dir, opts); err == nil || err.Error() != setErrPrefix+cold.Error() {
		t.Fatalf("ResumeAuto over the forged sidecar: %v, want the cold verdict %v", err, cold)
	}
	if n := mVerifyResumes.Value() - resumes; n != 0 {
		t.Fatalf("ResumeAuto over the forged sidecar: %d scans resumed from it, want 0", n)
	}
}

// TestTolerantTailJudgesAcceptedCommitPoint: crash recovery forgives a
// damaged last signature record, and the commit point it falls back to is
// then the one the verdict rests on — so that one is ECDSA-checked.
func TestTolerantTailJudgesAcceptedCommitPoint(t *testing.T) {
	key := testKey(t)
	img := synthLog(t, key, 12, 4) // three batches
	recs := imageRecords(t, img)
	sigs := sigRecords(recs)
	opts := VerifyOptions{Pub: &key.PublicKey, RecoverTruncated: true}

	torn := img[:len(img)-10] // inside the last signature record
	checks, locates := mVerifySignatures.Value(), mVerifyLocates.Value()
	res, _, err := verifyEntries(bytes.NewReader(torn), opts, imageShard)
	if err != nil || res.CommittedBytes != recs[sigs[1]].end || res.Batches != 2 {
		t.Fatalf("torn last signature record: %+v, %v; want the second commit point", res, err)
	}
	if d := mVerifySignatures.Value() - checks; d != 1 || mVerifyLocates.Value() != locates {
		t.Fatalf("%d ECDSA checks, want one, on the accepted commit point", d)
	}
	driversAgree(t, torn, opts, []int{1, 2, 4})

	var ref *refResult
	flipS := func(recs []referenceRecord, k int) { p := recs[sigs[k]].payload; p[sigSAt(p)] ^= 0xff }

	// Damaged but framed: the locate pass checks the earlier ones in turn.
	recs = imageRecords(t, img)
	flipS(recs, 2)
	ref, _, err = driversAgree(t, buildImage(recs), opts, []int{1, 2, 4})
	if err != nil || ref.Batches != 2 {
		t.Fatalf("invalid last signature record: %+v, %v; want the second commit point", ref, err)
	}

	// The one before it invalid as well: that is damage inside the signed
	// prefix, not a torn tail.
	flipS(recs, 1)
	if _, _, err = driversAgree(t, buildImage(recs), opts, []int{1, 2, 4}); err == nil ||
		!strings.Contains(err.Error(), "corrupted entry inside signed prefix") {
		t.Fatalf("two invalid signature records: %v, want a rejection", err)
	}

	// Torn last record, invalid one before it: every driver falls back as
	// the reference does, to the commit point before both.
	recs = imageRecords(t, img)
	flipS(recs, 1)
	tornBad := buildImage(recs)
	tornBad = tornBad[:len(tornBad)-10]
	if ref, _, err = driversAgree(t, tornBad, opts, []int{1, 2, 4}); err != nil || ref.Batches != 1 {
		t.Fatalf("torn last record after an invalid one: %+v, %v", ref, err)
	}
}

// shard3 stamps the parallel driver's errors in the location tests, which
// check that the ordinal a driver is given is the one it reports.
var shard3 = shardRef{k: 3}

// goldenPub is the golden corpus's committed public key.
func goldenPub(t testing.TB) *ecdsa.PublicKey {
	t.Helper()
	pemData, err := os.ReadFile(filepath.Join(goldenDir, "pub.pem"))
	if err != nil {
		t.Fatalf("golden corpus missing (%v); run with -update to generate", err)
	}
	pub, err := pki.DecodePublicKeyPEM(pemData)
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

// TestGoldenMutationsEveryDriver runs every single-byte flip and every
// truncation of the four golden images, strict and tolerant, through the
// reference and every production driver (driversAgree), and pins down which
// cells read clean — accepted with the whole mutated image committed. With
// nothing but the key that is exactly a truncation at a commit point, in
// either mode: an earlier state of the log, which only the counter can tell
// from the current one. No flip ever reads clean.
func TestGoldenMutationsEveryDriver(t *testing.T) {
	pub := goldenPub(t)
	stride := 1
	if testing.Short() {
		stride = 5
	}
	for _, v := range goldenVectors {
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			img, err := os.ReadFile(filepath.Join(goldenDir, v.name+".lseal"))
			if err != nil {
				t.Fatal(err)
			}
			commitPoints := map[int]bool{len(fileMagic): true}
			recs := imageRecords(t, img)
			for _, i := range sigRecords(recs) {
				commitPoints[int(recs[i].end)] = true
			}
			final, _, err := verifyEntries(bytes.NewReader(img), VerifyOptions{Pub: pub}, imageShard)
			if err != nil {
				t.Fatal(err)
			}
			for _, tolerant := range []bool{false, true} {
				opts := VerifyOptions{Pub: pub, RecoverTruncated: tolerant}
				for off := 0; off < len(img); off += stride {
					for _, flip := range []bool{true, false} {
						mut := mutate(img, off, flip)
						res, _, err := driversAgree(t, mut, opts, []int{1, 4})
						clean := err == nil && res.CommittedBytes == int64(len(mut))
						if want := !flip && commitPoints[off]; clean != want {
							t.Fatalf("flip=%v tolerant=%v at %d: clean=%v, want %v (%v)", flip, tolerant, off, clean, want, err)
						}
						if !clean || tolerant {
							continue
						}
						// What the bytes cannot show, the counter does.
						fresh := opts
						fresh.Protector = fakeProtector(final.Counter)
						if _, _, err := driversAgree(t, mut, fresh, []int{2}); !errors.Is(err, ErrBadCounter) && res.Counter != final.Counter {
							t.Fatalf("truncation at commit point %d under the live counter: %v, want ErrBadCounter", off, err)
						}
					}
				}
			}
		})
	}
}

// TestVerifyErrorLocatesRecord: wherever a flipped byte makes one record's
// own check fail, every driver's error says where that record is — checked
// against the reference's record list, not a table.
func TestVerifyErrorLocatesRecord(t *testing.T) {
	pub := goldenPub(t)
	opts := VerifyOptions{Pub: pub}
	for _, v := range goldenVectors {
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			img, err := os.ReadFile(filepath.Join(goldenDir, v.name+".lseal"))
			if err != nil {
				t.Fatal(err)
			}
			located := 0
			for off := range img {
				mut := mutate(img, off, true)
				_, refErr := referenceVerify(bytes.NewReader(mut), opts)
				if refErr == nil || !recordLevel(refErr) {
					continue
				}
				recs, err := referenceRecords(bytes.NewReader(mut), false)
				if err != nil {
					t.Fatalf("record-level verdict on an image that does not frame: %v", err)
				}
				// The record holding the flipped byte fails, or — an entry
				// that still decodes — the signature record closing its batch.
				hit := 0
				for int64(off) >= recs[hit].end {
					hit++
				}
				want := VerifyError{Record: -1}
				failing := -1
				for i, r := range recs {
					isSig := r.typ == recSig
					if i >= hit && (i == hit || isSig) && isSig == strings.Contains(refErr.Error(), "signature record ") {
						failing = i
						break
					}
					if isSig {
						want.Batch++
					}
				}
				if failing < 0 {
					t.Fatalf("flip at %d: no record to blame for %v", off, refErr)
				}
				want.Offset = recs[failing].headerOff()
				if recs[failing].typ == recEntry {
					want.Record = 0
					for i := failing - 1; i >= 0 && recs[i].typ == recEntry; i-- {
						want.Record++
					}
				}
				_, _, oneWorker := verifyEntries(bytes.NewReader(mut), opts, imageShard)
				_, _, parallel := streamEntries(bytes.NewReader(mut), opts, 2, shard3)
				_, _, chunked := feedChunked(mut, opts, []int{7, 1, 64, 3})
				for driver, err := range map[string]error{"one-worker": oneWorker, "parallel": parallel, "chunk-fed": chunked} {
					var ve *VerifyError
					if !errors.As(err, &ve) || !errors.Is(err, ErrTampered) || err.Error() != refErr.Error() {
						t.Fatalf("flip at %d, %s: %v (%T), want a *VerifyError reading %q", off, driver, err, err, refErr)
					}
					w := want
					w.Reason = ve.Reason
					if driver == "parallel" {
						w.Shard = 3
					}
					if *ve != w {
						t.Fatalf("flip at %d, %s: located %+v, want %+v (%v)", off, driver, *ve, w, refErr)
					}
				}
				located++
			}
			if located == 0 {
				t.Fatal("no record-level cell exercised")
			}
			locatesStreamVerdicts(t, img, pub)
		})
	}
}

// locatesStreamVerdicts is the other half of TestVerifyErrorLocatesRecord:
// every cell of the verdict tables — each flip and each truncation, strict and
// tolerant — whose reference verdict is a framing error or an end-of-stream
// verdict. Each driver that can raise it must say where the reference stopped:
// at the header where its framing ends (a truncated or oversized record), at
// the unknown record, where the unsigned entries start, or — a corrupted
// record inside the signed prefix — at the record the strict reference blames.
func locatesStreamVerdicts(t *testing.T, img []byte, pub *ecdsa.PublicKey) {
	t.Helper()
	seen := map[string]int{}
	for off := range img {
		for _, flip := range []bool{true, false} {
			for _, tolerant := range []bool{false, true} {
				mut := mutate(img, off, flip)
				opts := VerifyOptions{Pub: pub, RecoverTruncated: tolerant}
				_, refErr := referenceVerify(bytes.NewReader(mut), opts)
				if refErr == nil || recordLevel(refErr) || strings.Contains(refErr.Error(), "magic") {
					continue
				}
				// What frames, whatever follows it.
				recs, _ := referenceRecords(bytes.NewReader(mut), true)
				want := VerifyError{Offset: int64(len(fileMagic)), stream: true}
				walk := func(stop func(referenceRecord) bool) {
					for _, r := range recs {
						if stop(r) {
							return
						}
						want.Offset = r.end
						switch r.typ {
						case recEntry:
							want.Record++
						case recSig:
							want.Batch, want.Record = want.Batch+1, 0
						}
					}
				}
				class, chunkFed := "", false
				switch msg := refErr.Error(); {
				case strings.Contains(msg, "truncated record"), strings.Contains(msg, "oversized record"):
					class, chunkFed = "framing", strings.Contains(msg, "oversized") && !tolerant
					walk(func(referenceRecord) bool { return false })
				case strings.Contains(msg, "unknown record type"):
					class, chunkFed = "unknown type", !tolerant
					walk(func(r referenceRecord) bool { return r.typ != recEntry && r.typ != recSig })
				case strings.Contains(msg, "after the last signature record"), strings.Contains(msg, "missing signature record"):
					class = "unsigned tail"
					walk(func(referenceRecord) bool { return false })
					for i := len(recs) - 1; i >= 0 && recs[i].typ == recEntry; i-- {
						want.Offset = recs[i].headerOff()
					}
					want.Record = 0
				case strings.Contains(msg, "corrupted entry inside signed prefix"):
					class = "inside signed prefix"
					// The strict reference names the record; the strict drivers,
					// already checked against it above, say where it is.
					_, _, strictErr := verifyEntries(bytes.NewReader(mut), VerifyOptions{Pub: pub}, imageShard)
					var at *VerifyError
					if !errors.As(strictErr, &at) || at.stream {
						t.Fatalf("flip=%v at %d: tolerant verdict %q but the strict one is %v", flip, off, refErr, strictErr)
					}
					want.Offset, want.Batch, want.Record = at.Offset, at.Batch, at.Record
				default:
					t.Fatalf("flip=%v tolerant=%v at %d: unexpected class of verdict: %v", flip, tolerant, off, refErr)
				}
				want.Reason = strings.TrimPrefix(refErr.Error(), ErrTampered.Error()+": ")
				_, _, oneWorker := verifyEntries(bytes.NewReader(mut), opts, imageShard)
				_, _, parallel := streamEntries(bytes.NewReader(mut), opts, 2, shard3)
				drivers := map[string]error{"one-worker": oneWorker, "parallel": parallel}
				if chunkFed {
					// The chunk-fed driver judges in stream order and stops at the
					// first failure: it raises this one only if nothing before it
					// in the stream fails first.
					if _, _, err := feedChunked(mut, opts, []int{7, 1, 64, 3}); err != nil && err.Error() == refErr.Error() {
						drivers["chunk-fed"] = err
						seen["chunk-fed "+class]++
					}
				}
				for driver, err := range drivers {
					var ve *VerifyError
					if !errors.As(err, &ve) || !errors.Is(err, ErrTampered) || err.Error() != refErr.Error() {
						t.Fatalf("flip=%v tolerant=%v at %d, %s: %v (%T), want a *VerifyError reading %q", flip, tolerant, off, driver, err, err, refErr)
					}
					w := want
					if driver == "parallel" {
						w.Shard = 3
					}
					if *ve != w {
						t.Fatalf("flip=%v tolerant=%v at %d, %s: located %+v, want %+v", flip, tolerant, off, driver, *ve, w)
					}
				}
				seen[class]++
			}
		}
	}
	for _, class := range []string{"framing", "chunk-fed framing", "unsigned tail", "inside signed prefix"} {
		if seen[class] == 0 {
			t.Fatalf("no %s cell exercised (%v)", class, seen)
		}
	}
}

// TestFormerFormatRefusedByName: a format-1 or format-2 file is not garbage,
// and every driver says which format it is.
func TestFormerFormatRefusedByName(t *testing.T) {
	body := synthLog(t, testKey(t), 3, 1)[len(fileMagic):]
	for format := 1; format <= 2; format++ {
		img := append([]byte(fmt.Sprintf("LIBSEALLOG%d\n", format)), body...)
		want := fmt.Sprintf("log format %d is not supported; this build reads format 3", format)
		for _, tolerant := range []bool{false, true} {
			_, _, err := driversAgree(t, img, VerifyOptions{RecoverTruncated: tolerant}, []int{1, 2})
			if !errors.Is(err, ErrTampered) || !strings.Contains(err.Error(), want) {
				t.Fatalf("format %d, tolerant=%v: %v", format, tolerant, err)
			}
			if _, _, err := feedChunked(img, VerifyOptions{}, []int{5}); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("format %d, chunk-fed: %v", format, err)
			}
		}
	}
}

// signatureChecks runs fn and returns how many ECDSA checks and locate
// passes log verification performed meanwhile.
func signatureChecks(fn func()) (checks, locates int64) {
	c, l := mVerifySignatures.Value(), mVerifyLocates.Value()
	fn()
	return mVerifySignatures.Value() - c, mVerifyLocates.Value() - l
}

// TestColdVerifyChecksOneSignaturePerShard counts the ECDSA checks of each
// kind of run over a two-shard set of 1 000 batches and four manifests: one
// per shard plus one per sidecar, whatever the number of batches and
// manifests.
func TestColdVerifyChecksOneSignaturePerShard(t *testing.T) {
	e := newAuditEnv(t)
	var s *ShardedLog
	e.call(t, func(env *asyncall.Env) (err error) {
		if s, err = NewSharded(env, e.shardConfig("git", 2)); err != nil {
			return err
		}
		keys := [2]uint64{keyForShard(s, 0), keyForShard(s, 1)}
		for i := 0; i < 1000; i++ {
			k := 0
			if i%100 >= 51 { // 510 batches on shard 0, 490 on shard 1
				k = 1
			}
			if err := s.Append(env, keys[k], "updates", i, "r", "main", fmt.Sprintf("c%d", i), "update"); err != nil {
				return err
			}
			if i%300 == 299 {
				if err := s.WriteManifest(env); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	opts := StreamOptions{
		VerifyOptions: VerifyOptions{Pub: e.encl.PublicKey(), Protector: e.group},
		OnSegment:     func(SegmentInfo) error { return nil },
	}
	verify := func(o StreamOptions) (rep *Report, err error) {
		rep, err = VerifyPath(context.Background(), e.dir, o)
		return rep, err
	}

	var rep *Report
	var err error
	checks, locates := signatureChecks(func() { rep, err = verify(opts) })
	if err != nil || rep.TotalBatches != 1000 || rep.Manifests != 4 {
		t.Fatalf("cold: %+v, %v", rep, err)
	}
	if checks != 3 || locates != 0 {
		t.Fatalf("cold: %d ECDSA checks and %d locate passes, want 3 and 0", checks, locates)
	}

	copts := opts
	copts.Checkpoint = &CheckpointConfig{EverySegments: 100}
	saved := mVerifyCheckpoints.Value()
	checks, locates = signatureChecks(func() { _, err = verify(copts) })
	saved = mVerifyCheckpoints.Value() - saved
	if err != nil || saved != 9 || checks != 3+saved || locates != 0 {
		t.Fatalf("checkpointing: %v, %d saved, %d ECDSA checks, %d locates; want 9 saved and 3 + 9 checks", err, saved, checks, locates)
	}

	// Shard 0's last checkpoint (its 500th batch) lies past the last
	// manifest, which attests its 459th: nothing can vouch for it, so shard 0
	// runs cold. Shard 1's (its 400th) lies below the 441st the last manifest
	// attests, which the resumed scan reaches.
	ropts := opts
	ropts.ResumeAuto = true
	checks, locates = signatureChecks(func() { rep, err = verify(ropts) })
	if err != nil || !rep.Resumed || rep.TotalBatches != 1000 {
		t.Fatalf("resumed: %+v, %v", rep, err)
	}
	if rep.Shards[0].Resumed || rep.Shards[0].Batches != 510 || !rep.Shards[1].Resumed || rep.Shards[1].Batches != 90 {
		t.Fatalf("resumed: shard 0 resumed=%v after %d batches, shard 1 resumed=%v after %d; want cold after 510, resumed after 90",
			rep.Shards[0].Resumed, rep.Shards[0].Batches, rep.Shards[1].Resumed, rep.Shards[1].Batches)
	}
	if checks != 4 || locates != 0 { // shard 0: its closing check; shard 1: its checkpoint's proof, then its closing check; the sidecar's
		t.Fatalf("resumed: %d ECDSA checks and %d locate passes, want 4 and 0", checks, locates)
	}

	// One flipped byte in a mid-log signature record's S: the closing check
	// of the records before it fails, and one locate pass names it.
	path := s.Files()[0].Path()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := imageRecords(t, img)
	victim := recs[sigRecords(recs)[200]]
	img[victim.end-1] ^= 0xff
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	_, locates = signatureChecks(func() { _, err = verify(opts) })
	var ve *VerifyError
	if !errors.As(err, &ve) || ve.Shard != 0 || ve.Batch != 200 || ve.Offset != victim.headerOff() || ve.Reason != "signature invalid" || locates != 1 {
		t.Fatalf("flipped S: %v (%+v), %d locate passes", err, ve, locates)
	}
}

// TestRecoverChecksOneSignature: server start pays one ECDSA check for the
// shard and one for the sidecar, however long either.
func TestRecoverChecksOneSignature(t *testing.T) {
	e := newAuditEnv(t)
	cfg := e.diskConfig("git")
	var l *oneShard
	e.call(t, func(env *asyncall.Env) (err error) {
		if l, err = newOneShard(env, cfg); err != nil {
			return err
		}
		for i := 0; i < 1000; i++ {
			if err := l.Append(env, "updates", i, "r", "main", "c", "update"); err != nil {
				return err
			}
			if i%100 == 99 {
				if err := l.set.WriteManifest(env); err != nil {
					return err
				}
			}
		}
		return nil
	})
	l.Close()
	checks, locates := signatureChecks(func() {
		e.call(t, func(env *asyncall.Env) (err error) {
			l, err = recoverOneShard(env, cfg, e.encl.PublicKey())
			return err
		})
	})
	defer l.Close()
	if l.Seq() != 1000 || checks != 2 || locates != 0 {
		t.Fatalf("recovered %d entries with %d ECDSA checks and %d locate passes, want 1000, 2, 0", l.Seq(), checks, locates)
	}
}

// checkLinks asserts that every signature record of the file, as found on
// disk, links to its predecessor, the first to nothing.
func checkLinks(t *testing.T, path, when string) {
	t.Helper()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sigHead [32]byte
	n := 0
	for _, r := range imageRecords(t, img) {
		if r.typ != recSig {
			continue
		}
		sr, err := parseSig(r.payload)
		if err != nil {
			t.Fatalf("%s: %s signature record %d: %v", when, filepath.Base(path), n, err)
		}
		if sr.prev != sigHead {
			t.Fatalf("%s: %s signature record %d links to %x, its predecessor hashes to %x", when, filepath.Base(path), n, sr.prev[:4], sigHead[:4])
		}
		sigHead = sha256.Sum256(r.payload)
		n++
	}
	if n == 0 {
		t.Fatalf("%s: %s holds no signature record", when, filepath.Base(path))
	}
}

// TestWriterLinksSignatures follows sigHead through every path that writes a
// signature record — a commit, a degraded commit, Reanchor, the trim
// rewrite, recovery's re-anchor — and through a commit that fails, after
// which the next record must link to the last durable one.
func TestWriterLinksSignatures(t *testing.T) {
	e := newAuditEnv(t)
	prot := newLaneProtector()
	in := faultinject.New(1)
	cfg := e.shardConfig("git", 2)
	cfg.BatchMax, cfg.Protector, cfg.DegradedLimit, cfg.FS = 2, prot, 8, in.FS(nil)
	cfg.RecoverMaxLag = 1 // the torn append below spends an increment no record carries
	pub := e.encl.PublicKey()
	var s *ShardedLog
	var keys [2]uint64
	seq := 0
	appendBoth := func(env *asyncall.Env) error {
		for _, key := range keys {
			seq++
			if err := s.Append(env, key, "updates", seq, "r", "main", fmt.Sprintf("c%d", seq), "update"); err != nil {
				return err
			}
		}
		return nil
	}
	check := func(when string) {
		t.Helper()
		for _, f := range s.Files() {
			if strings.HasSuffix(f.Path(), ".lseal") {
				checkLinks(t, f.Path(), when)
			}
		}
	}

	e.call(t, func(env *asyncall.Env) (err error) {
		if s, err = NewSharded(env, cfg); err != nil {
			return err
		}
		keys = [2]uint64{keyForShard(s, 0), keyForShard(s, 1)}
		for i := 0; i < 3; i++ {
			if err := appendBoth(env); err != nil {
				return err
			}
		}
		return nil
	})
	check("after appends")

	e.call(t, func(env *asyncall.Env) error {
		prot.failing(func(string) bool { return true })
		if err := appendBoth(env); err != nil {
			return err
		}
		prot.failing(nil)
		if err := s.Reanchor(env); err != nil {
			return err
		}
		return s.WriteManifest(env)
	})
	check("after a degraded episode, Reanchor and a manifest")

	// A full disk under shard 0's next signature record: the batch fails, the
	// one staged behind it is aborted, and sigHead must not have moved.
	shard0 := filepath.Base(s.Files()[0].Path())
	n := in.Count("fs:" + shard0)
	lost := entryRecordSize(t, "updates", 100, "r", "main", "lost", "update")
	in.Add(faultinject.NoSpace(shard0, n, n+1).AtByte(2 * lost)) // two entry records land, then the signature's header fails
	e.call(t, func(env *asyncall.Env) error {
		row := func(i int) Row {
			return Row{Table: "updates", Values: []any{100 + i, "r", "main", "lost", "update"}}
		}
		a, err := s.Stage(env, keys[0], []Row{row(0), row(1)})
		if err != nil {
			return err
		}
		b, err := s.Stage(env, keys[0], []Row{row(2)})
		if err != nil {
			return err
		}
		if err := a.Wait(env); !errors.Is(err, syscall.ENOSPC) {
			t.Errorf("commit on a full disk: %v, want ENOSPC", err)
		}
		if err := b.Wait(env); !errors.Is(err, ErrBatchAborted) {
			t.Errorf("batch behind it: %v, want ErrBatchAborted", err)
		}
		return appendBoth(env)
	})
	check("after a failed commit")

	e.call(t, func(env *asyncall.Env) error {
		if err := trimSet(env, s, []string{"DELETE FROM updates WHERE time <= 4"}); err != nil {
			return err
		}
		return appendBoth(env)
	})
	check("after a trim")

	// A crash mid-append (torn write), then recovery and more appends.
	n = in.Count("fs:" + shard0)
	torn := entryRecordSize(t, "updates", 999, "r", "main", "torn", "update")
	in.Add(faultinject.TornWrite(shard0, n).AtByte(torn + 5 + 72)) // inside the signature's scalars
	err := e.bridge.Call(func(env *asyncall.Env) error {
		return s.Append(env, keys[0], "updates", 999, "r", "main", "torn", "update")
	})
	if !errors.Is(err, faultinject.ErrTornWrite) {
		t.Fatalf("torn append: %v", err)
	}
	s.Close()
	e.call(t, func(env *asyncall.Env) (err error) {
		if s, err = RecoverSharded(env, cfg, pub); err != nil {
			return err
		}
		return appendBoth(env)
	})
	defer s.Close()
	check("after crash recovery")
	if _, err := VerifyPath(context.Background(), e.dir, StreamOptions{VerifyOptions: VerifyOptions{Pub: pub}}); err != nil {
		t.Fatalf("the set no longer verifies: %v", err)
	}
}

// TestSigWindowBoundsUncheckedRecords: a log longer than the window costs
// one extra check per window, and a bad record early in a window is still
// named.
func TestSigWindowBoundsUncheckedRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("signs two windows' worth of records")
	}
	key := testKey(t)
	img := synthLog(t, key, sigWindow+10, 1)
	opts := VerifyOptions{Pub: &key.PublicKey}
	var err error
	checks, locates := signatureChecks(func() { _, _, err = streamEntries(bytes.NewReader(img), opts, 2, imageShard) })
	if err != nil || checks != 2 || locates != 0 {
		t.Fatalf("%v, %d ECDSA checks, %d locate passes; want 2 and 0", err, checks, locates)
	}
	recs := imageRecords(t, img)
	p := recs[sigRecords(recs)[7]].payload
	binary.BigEndian.PutUint64(p[sigCounterAt:], 99)
	rehash(recs)
	_, _, err = streamEntries(bytes.NewReader(buildImage(recs)), opts, 2, imageShard)
	var ve *VerifyError
	if !errors.As(err, &ve) || ve.Batch != 7 || ve.Reason != "signature invalid" {
		t.Fatalf("forged counter in record 7 of a full window: %v", err)
	}
}
