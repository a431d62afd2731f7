package audit

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"libseal/internal/sqldb"
	"libseal/internal/testutil"
)

// Tests for verification in place (DESIGN.md §13): records cut out of blocks
// by header alone, runs of batches handed to workers, entries walked rather
// than built. What could go wrong is at the seams — a record, header or
// signature across a block boundary, a batch across two runs, an entry decoded
// late from a block already reused — so the seams are put everywhere.

// withBlockSize runs fn with the scanner's block size forced to n.
func withBlockSize(n int, fn func()) {
	defer func(was int) { scanBlock = was }(scanBlock)
	scanBlock = n
	fn()
}

// TestBlockBoundaries verifies every golden image, the re-hashed-suffix image,
// a forged length at the end of an image, a log of one long batch and a log
// with unsigned entries with the block size forced to every value from 6
// bytes to one past the image, so that every record, header and signature
// straddles a block boundary at some size, every batch is longer than a
// block at some size and the carry and the growth of a block run at every
// alignment. Strict and tolerant, at one worker and two and from a file, the
// verdict must be the one every driver reaches at the production block size,
// which is the reference's (driversAgree).
func TestBlockBoundaries(t *testing.T) {
	key := testKey(t)
	type image struct {
		name string
		img  []byte
		opts VerifyOptions
	}
	var images []image
	for _, v := range goldenVectors {
		img, err := os.ReadFile(filepath.Join(goldenDir, v.name+".lseal"))
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, image{v.name, img, VerifyOptions{Pub: goldenPub(t)}})
	}
	own := VerifyOptions{Pub: &key.PublicKey}
	_, rehashed, _ := rehashedSuffix(t, key)
	forged := binary.BigEndian.AppendUint32(append(synthLog(t, key, 9, 4), recEntry), maxRecordBytes+1)
	images = append(images,
		image{"rehashed-suffix", rehashed, own},
		image{"forged-length", forged, own},
		image{"unsigned-tail", appendUnsigned(t, synthLog(t, key, 6, 3), 6, 2), own},
		// One batch over at least three blocks at every size up to a third
		// of it: a span hashed whole however the scanner carried it.
		image{"one-batch", synthLog(t, key, 12, 12), own},
	)
	step := 1
	if testing.Short() {
		step = 13
	}
	for _, im := range images {
		t.Run(im.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.lseal")
			if err := os.WriteFile(path, im.img, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, tolerant := range []bool{false, true} {
				opts := im.opts
				opts.RecoverTruncated = tolerant
				want, _, wantErr := driversAgree(t, im.img, opts, []int{2})
				same := func(bs int, driver string, res *refResult, err error) {
					t.Helper()
					if (wantErr == nil) != (err == nil) || (err != nil && err.Error() != wantErr.Error()) {
						t.Fatalf("block size %d, tolerant=%v, %s: %v, want %v", bs, tolerant, driver, err, wantErr)
					}
					if err == nil && !reflect.DeepEqual(res, want) {
						t.Fatalf("block size %d, tolerant=%v, %s: %+v, want %+v", bs, tolerant, driver, res, want)
					}
				}
				for bs := 6; bs <= len(im.img)+1; bs += step {
					withBlockSize(bs, func() {
						res, err := resultOf(verifyEntries(bytes.NewReader(im.img), opts, imageShard))
						same(bs, "one-worker", res, err)
						res, err = resultOf(streamEntries(bytes.NewReader(im.img), opts, 2, imageShard))
						same(bs, "parallel", res, err)
						sopts, entries := collectEntries(StreamOptions{VerifyOptions: opts, Workers: 2})
						par, err := streamFile(context.Background(), path, sopts, nil)
						res, err = resultOf(par, *entries, err)
						same(bs, "file", res, err)
					})
				}
			}
		})
	}
}

// TestRecordLongerThanBlock puts a record three production blocks long in the
// middle of a log: its block grows to hold it and the batch around it stays
// one run.
func TestRecordLongerThanBlock(t *testing.T) {
	key := testKey(t)
	big := &Entry{Seq: 2, Table: "updates", Values: []sqldb.Value{sqldb.Text(strings.Repeat("\xa5", 3*blockSize))}}
	var buf bytes.Buffer
	if _, err := WriteSyntheticBatches(&buf, key, []SyntheticBatch{
		{Entries: []*Entry{SyntheticEntry(0), SyntheticEntry(1)}, Counter: 1},
		{Entries: []*Entry{big, SyntheticEntry(3)}, Counter: 2},
		{Entries: []*Entry{SyntheticEntry(4)}, Counter: 3},
	}); err != nil {
		t.Fatal(err)
	}
	for _, tolerant := range []bool{false, true} {
		res, _, err := driversAgree(t, buf.Bytes(), VerifyOptions{Pub: &key.PublicKey, RecoverTruncated: tolerant}, []int{1, 2})
		if err != nil || len(res.Entries) != 5 || res.Batches != 3 {
			t.Fatalf("tolerant=%v: %+v, %v", tolerant, res, err)
		}
	}
}

// TestForgedLengthCostsBytesPresent: a header claiming the largest record the
// cap allows, followed by 1 KiB, costs every driver memory in proportion to
// the bytes that are there — a block — not to the claim.
func TestForgedLengthCostsBytesPresent(t *testing.T) {
	img := binary.BigEndian.AppendUint32(append(bytes.Clone(fileMagic), recEntry), maxRecordBytes)
	img = append(img, make([]byte, 1<<10)...)
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for driver, fn := range map[string]func(){
		"one-worker": func() {
			if _, _, err := verifyEntries(bytes.NewReader(img), VerifyOptions{}, imageShard); err == nil || err.Error() != ErrTampered.Error()+": truncated record" {
				t.Errorf("one-worker: %v", err)
			}
		},
		"parallel": func() {
			if _, err := verifyStream(context.Background(), bytes.NewReader(img), &StreamOptions{Workers: 2}, imageShard, nil); err == nil || err.Error() != ErrTampered.Error()+": truncated record" {
				t.Errorf("parallel: %v", err)
			}
		},
		"chunk-fed": func() {
			if v, _, err := feedChunked(img, VerifyOptions{}, []int{100}); err != nil || v.Buffered() != 5+1<<10 {
				t.Errorf("chunk-fed: buffered %d, %v", v.Buffered(), err)
			}
		},
	} {
		if got := allocated(fn); got > 4*blockSize {
			t.Errorf("%s allocated %d bytes for a %d-byte image claiming a %d-byte record", driver, got, len(img), maxRecordBytes)
		}
	}
}

// TestSegmentEntriesOnDemand: for every batch of every golden image, at every
// worker count, the entries a callback asks for are the ones the reference
// decodes and NumEntries is their number.
func TestSegmentEntriesOnDemand(t *testing.T) {
	pub := goldenPub(t)
	for _, v := range goldenVectors {
		img, err := os.ReadFile(filepath.Join(goldenDir, v.name+".lseal"))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := referenceVerify(bytes.NewReader(img), VerifyOptions{Pub: pub})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, bs := range []int{blockSize, 200} {
				t.Run(fmt.Sprintf("%s/plain/w%d/block%d", v.name, workers, bs), func(t *testing.T) {
					segs := 0
					withBlockSize(bs, func() {
						_, err = verifyStream(context.Background(), bytes.NewReader(img), &StreamOptions{
							VerifyOptions: VerifyOptions{Pub: pub}, Workers: workers,
							OnSegment: func(s SegmentInfo) error {
								segs++
								want := ref.Entries[int(s.EndSeq)-s.NumEntries : s.EndSeq]
								got := s.Entries()
								if len(got) != s.NumEntries || len(got) != len(want) {
									t.Errorf("segment %d: %d entries, NumEntries %d, reference %d", s.Index, len(got), s.NumEntries, len(want))
								}
								for i := range got {
									if !reflect.DeepEqual(got[i], want[i]) {
										t.Errorf("segment %d entry %d: %+v, reference %+v", s.Index, i, got[i], want[i])
									}
								}
								return nil
							},
						}, imageShard, nil)
					})
					if err != nil || segs != ref.Batches {
						t.Fatalf("%d segments, %v; want %d", segs, err, ref.Batches)
					}
				})
			}
		}
	}
}

// TestVerifyAllocsPerEntry: a scan whose callback never asks for entries
// builds none, and it recycles its memory. What it allocates is per scan, not
// per entry or per block read: far under one allocation in ten entries (the
// decode this replaced made five per entry), and a scan of 4N entries makes a
// handful more allocations than one of N at most. Once a scan has run, the
// next allocates no block (its runs, blocks and all, come back from idleRuns)
// and at most 8 bytes per entry. The race detector's sync.Pool drops a quarter
// of what is put back, so under it those two checks give way to the bound
// that holds without idleRuns: under 56 bytes per entry.
func TestVerifyAllocsPerEntry(t *testing.T) {
	const entries = 40000
	key := testKey(t)
	scanOf := func(n int) func() {
		img := synthLog(t, key, n, 16)
		opts := StreamOptions{
			VerifyOptions: VerifyOptions{Pub: &key.PublicKey}, Workers: 2,
			OnSegment: func(SegmentInfo) error { return nil },
		}
		return func() {
			if res, err := verifyStream(context.Background(), bytes.NewReader(img), &opts, imageShard, nil); err != nil || res.TotalEntries != n {
				t.Fatalf("%+v, %v", res, err)
			}
		}
	}
	short, long := scanOf(entries/4), scanOf(entries)
	withBlockSize(64<<10, func() {
		perShort, perLong := testing.AllocsPerRun(5, short), testing.AllocsPerRun(5, long)
		if perEntry := perLong / entries; perEntry >= 0.1 {
			t.Fatalf("%.0f allocations per scan of %d entries: %.2f per entry, want < 0.1", perLong, entries, perEntry)
		}
		if perLong > perShort+8 {
			t.Fatalf("%.0f allocations per scan of %d entries, %.0f per scan of %d: they grow with the log", perLong, entries, perShort, entries/4)
		}
		// A collection empties idleRuns into its victim cache, and a second
		// one drops that: settle the heap so that none runs in between.
		runtime.GC()
		long()
		blocks := mVerifyBlockAllocs.Value()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		long()
		runtime.ReadMemStats(&after)
		perEntry := float64(after.TotalAlloc-before.TotalAlloc) / entries
		if testutil.RaceEnabled {
			if perEntry >= 56 {
				t.Fatalf("%d bytes allocated per scan of %d entries: %.1f per entry, want < 56",
					after.TotalAlloc-before.TotalAlloc, entries, perEntry)
			}
			return
		}
		if n := mVerifyBlockAllocs.Value() - blocks; n != 0 {
			t.Fatalf("%d blocks allocated by a scan after a warm-up one, want none", n)
		}
		if perEntry > 8 {
			t.Fatalf("%d bytes allocated per scan of %d entries: %.1f per entry, want at most 8",
				after.TotalAlloc-before.TotalAlloc, entries, perEntry)
		}
	})
}
