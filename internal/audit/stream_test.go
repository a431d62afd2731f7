package audit

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"libseal/internal/enclave"
)

// testKey returns a fresh ECDSA key for synthetic logs.
func testKey(t testing.TB) *ecdsa.PrivateKey {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// synthLog builds an in-memory synthetic log.
func synthLog(t testing.TB, key *ecdsa.PrivateKey, n, batchMax int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteSyntheticLog(&buf, key, n, batchMax); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// synthSet makes img shard 0 of a one-shard set named "log" in a fresh
// directory, beside a manifest sidecar holding the set's creation manifest
// (every shard empty, the state each shard's commit points start from) and
// then one manifest per state in attest, which attests shard 0 at it, each
// linked to the one before and signed with key. It returns the directory and the shard file's path. The
// set driver wraps a shard's verdict in setErrPrefix.
func synthSet(t testing.TB, key *ecdsa.PrivateKey, img []byte, attest ...ShardState) (dir, shard string) {
	t.Helper()
	states := make([][]ShardState, len(attest))
	for i, st := range attest {
		states[i] = []ShardState{st}
	}
	dir = synthShards(t, key, [][]byte{img}, states...)
	return dir, filepath.Join(dir, ShardName("log", 0)+".lseal")
}

// synthShards is synthSet for a set of len(imgs) shards: imgs[k] is shard k's
// image, and each element of attest is one manifest's states, one per shard.
func synthShards(t testing.TB, key *ecdsa.PrivateKey, imgs [][]byte, attest ...[]ShardState) (dir string) {
	t.Helper()
	dir = t.TempDir()
	side := bytes.NewBuffer(bytes.Clone(manifestMagic))
	var prev [32]byte
	for i, states := range append([][]ShardState{make([]ShardState, len(imgs))}, attest...) {
		m := &Manifest{Epoch: uint64(i) + 1, Prev: prev, Shards: states}
		r, s, err := ecdsa.Sign(rand.Reader, key, manifestDigest("log", m))
		if err != nil {
			t.Fatal(err)
		}
		m.Sig = enclave.Signature{R: r.Bytes(), S: s.Bytes()}
		payload := marshalManifest(m)
		if _, err := writeRecords(side, []record{{typ: recManifest, payload: payload}}); err != nil {
			t.Fatal(err)
		}
		prev = sha256.Sum256(payload)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFileName("log")), side.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for k, img := range imgs {
		if err := os.WriteFile(filepath.Join(dir, ShardName("log", k)+".lseal"), img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const setErrPrefix = "shard 0 (log-shard0.lseal): "

// appendUnsigned appends n unsigned entries (starting at seq) to a log
// image — the shape a crash between entry writes and the batch signature
// leaves behind.
func appendUnsigned(t testing.TB, img []byte, seq uint64, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(img)
	for i := 0; i < n; i++ {
		p := SyntheticEntry(seq + uint64(i)).Marshal()
		if _, err := writeRecords(&buf, []record{{typ: recEntry, payload: p}}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// runBoth verifies img with the reference and every production driver (the
// parallel one at the given worker count) and asserts they agree; see
// driversAgree. It returns nil results when the shared verdict is an error.
func runBoth(t *testing.T, img []byte, opts VerifyOptions, workers int) (*refResult, *StreamResult) {
	t.Helper()
	ref, par, err := driversAgree(t, img, opts, []int{workers})
	if err != nil {
		return nil, nil
	}
	return ref, par
}

// streamFile runs the pipeline over the log file at path as an image with
// its checkpoint sidecar beside it (<path>.ckpt), resuming from resume when
// it is not nil — once the file authenticates it, as verifyShard requires.
func streamFile(ctx context.Context, path string, opts StreamOptions, resume *Checkpoint) (*StreamResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if resume != nil {
		if err := resume.matchFile(f, opts.Pub); err != nil {
			return nil, err
		}
		if _, err := f.Seek(resume.Offset, io.SeekStart); err != nil {
			return nil, err
		}
	}
	at := imageShard
	at.sidecar = path + ".ckpt"
	return verifyStream(ctx, f, &opts, at, resume)
}

func TestStreamMatchesSequentialShapes(t *testing.T) {
	key := testKey(t)
	opts := VerifyOptions{Pub: &key.PublicKey}
	shapes := []struct {
		name string
		img  []byte
	}{
		{"empty", synthLog(t, key, 0, 1)},
		{"one-entry", synthLog(t, key, 1, 1)},
		{"per-entry", synthLog(t, key, 57, 1)},
		{"batched", synthLog(t, key, 100, 7)},
		{"big-batches", synthLog(t, key, 300, 64)},
		{"trailing-unsigned", appendUnsigned(t, synthLog(t, key, 20, 5), 20, 3)},
	}
	// Bare signature records (empty batches) are the shape Reanchor leaves.
	{
		var buf bytes.Buffer
		if _, err := WriteSyntheticBatches(&buf, key, []SyntheticBatch{
			{Entries: []*Entry{SyntheticEntry(0), SyntheticEntry(1)}, Counter: 1},
			{Counter: 2},
			{Entries: []*Entry{SyntheticEntry(2)}, Counter: 3},
			{Counter: 4},
		}); err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, struct {
			name string
			img  []byte
		}{"empty-batches", buf.Bytes()})
	}
	for _, sh := range shapes {
		for _, workers := range []int{1, 3, 8} {
			for _, tolerant := range []bool{false, true} {
				o := opts
				o.RecoverTruncated = tolerant
				t.Run(fmt.Sprintf("%s/w%d/tolerant=%v", sh.name, workers, tolerant), func(t *testing.T) {
					runBoth(t, sh.img, o, workers)
				})
			}
		}
	}
}

func TestStreamProtectorAgreement(t *testing.T) {
	key := testKey(t)
	img := synthLog(t, key, 30, 4) // 8 batches, final counter 8
	for _, stable := range []uint64{0, 8, 9, 20} {
		for _, lag := range []uint64{0, 1, 15} {
			opts := VerifyOptions{
				Pub: &key.PublicKey, Protector: fakeProtector(stable),
				MaxCounterLag: lag,
			}
			t.Run(fmt.Sprintf("stable=%d/lag=%d", stable, lag), func(t *testing.T) {
				runBoth(t, img, opts, 4)
			})
		}
	}
}

// fakeProtector reports a fixed stable counter.
type fakeProtector uint64

func (f fakeProtector) Increment(string) (uint64, error) { return uint64(f), nil }
func (f fakeProtector) Read(string) (uint64, error)      { return uint64(f), nil }

func TestStreamCallbackBoundsMemory(t *testing.T) {
	const entries = 960
	key := testKey(t)
	img := synthLog(t, key, entries, 8)
	var got []uint64
	var lastOff int64
	// Blocks of two or three batches, so the scan is some fifty runs long and
	// the pipeline fills: the blocks read and not yet released — those not yet
	// folded, which the gauge counts (the one being folded, at a callback,
	// among them), and the one before, whose last batch was held until now —
	// must never pass 3×workers+1. The blocks allocated are bounded the same
	// way, however long the scan: the rest are recycled, each only once its
	// last batch was delivered — which the entries each callback decodes from
	// its block, in sequence, show.
	const workers = 4
	defer func(was int) { scanBlock = was }(scanBlock)
	scanBlock = 2 << 10
	idle, peak := mVerifyBlocks.Value(), int64(0)
	allocated := mVerifyBlockAllocs.Value()
	res, err := verifyStream(context.Background(), bytes.NewReader(img), &StreamOptions{
		VerifyOptions: VerifyOptions{Pub: &key.PublicKey},
		Workers:       workers,
		OnSegment: func(s SegmentInfo) error {
			if s.CommittedBytes <= lastOff {
				t.Errorf("segments out of order: %d after %d", s.CommittedBytes, lastOff)
			}
			lastOff = s.CommittedBytes
			peak = max(peak, mVerifyBlocks.Value()-idle+1)
			for _, e := range s.Entries() {
				got = append(got, e.Seq)
			}
			return nil
		},
	}, imageShard, nil)
	if err != nil {
		t.Fatal(err)
	}
	if peak < 1 || peak > 3*workers+1 || mVerifyBlocks.Value() != idle {
		t.Fatalf("blocks outstanding peaked at %d (bound %d) and ended at %d", peak, 3*workers+1, mVerifyBlocks.Value()-idle)
	}
	if n := mVerifyBlockAllocs.Value() - allocated; n > 3*workers+2 {
		t.Fatalf("%d blocks allocated for a %d-byte image in %d-byte blocks, want at most %d", n, len(img), scanBlock, 3*workers+2)
	}
	if res.TotalEntries != entries || len(got) != entries {
		t.Fatalf("TotalEntries=%d callback-saw=%d, want %d", res.TotalEntries, len(got), entries)
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("entry %d out of order: seq %d", i, seq)
		}
	}
	if res.Tables["updates"] != entries {
		t.Fatalf("Tables = %v, want updates:%d", res.Tables, entries)
	}
}

func TestStreamCallbackAbort(t *testing.T) {
	key := testKey(t)
	img := synthLog(t, key, 200, 4)
	boom := errors.New("boom")
	n := 0
	_, err := verifyStream(context.Background(), bytes.NewReader(img), &StreamOptions{
		VerifyOptions: VerifyOptions{Pub: &key.PublicKey},
		Workers:       4,
		OnSegment: func(SegmentInfo) error {
			n++
			if n == 3 {
				return boom
			}
			return nil
		},
	}, imageShard, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want callback abort", err)
	}
}

// TestStreamCancelStopsCommitting cancels the context mid-scan: the workers
// stop verifying, so the merger must stop committing — no segment delivered
// and no checkpoint written past the cancellation.
func TestStreamCancelStopsCommitting(t *testing.T) {
	key := testKey(t)
	logPath := filepath.Join(t.TempDir(), "log.lseal")
	if _, err := WriteSyntheticLogFile(logPath, key, 200, 4); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	delivered := 0
	_, err := streamFile(ctx, logPath, StreamOptions{
		VerifyOptions: VerifyOptions{Pub: &key.PublicKey},
		Workers:       4,
		Checkpoint:    &CheckpointConfig{EverySegments: 1},
		OnSegment: func(SegmentInfo) error {
			if delivered++; delivered == 3 {
				cancel()
			}
			return nil
		},
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ck, err := LoadCheckpoint(logPath + ".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 3 || ck.Batches != 3 {
		t.Fatalf("%d segments delivered, checkpoint at batch %d; want both to stop at 3", delivered, ck.Batches)
	}
}

func TestCheckpointResume(t *testing.T) {
	key := testKey(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log.lseal")
	ckptPath := logPath + ".ckpt" // streamFile's sidecar
	if _, err := WriteSyntheticLogFile(logPath, key, 500, 8); err != nil {
		t.Fatal(err)
	}
	opts := StreamOptions{VerifyOptions: VerifyOptions{Pub: &key.PublicKey}, Workers: 4}

	cold, err := streamFile(context.Background(), logPath, opts, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a verifier killed mid-run: checkpoint every 10 segments,
	// abort after 25.
	killed := errors.New("killed")
	seen := 0
	kopts := opts
	kopts.Checkpoint = &CheckpointConfig{EverySegments: 10}
	kopts.OnSegment = func(SegmentInfo) error {
		seen++
		if seen >= 25 {
			return killed
		}
		return nil
	}
	if _, err := streamFile(context.Background(), logPath, kopts, nil); !errors.Is(err, killed) {
		t.Fatalf("err = %v, want kill", err)
	}

	ck, err := LoadCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Batches == 0 || ck.Offset <= int64(len(fileMagic)) {
		t.Fatalf("checkpoint did not advance: %+v", ck)
	}

	warm, err := streamFile(context.Background(), logPath, opts, ck)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Resumed {
		t.Fatal("Resumed = false on resumed run")
	}
	if warm.TotalEntries != cold.TotalEntries || warm.TotalBatches != cold.TotalBatches ||
		warm.TotalMaxBatch != cold.TotalMaxBatch || warm.Counter != cold.Counter ||
		warm.CommittedBytes != cold.CommittedBytes || !reflect.DeepEqual(warm.Tables, cold.Tables) {
		t.Fatalf("resumed totals differ from cold:\n  cold: %+v\n  warm: %+v", cold, warm)
	}
	if warm.Batches >= cold.Batches {
		t.Fatalf("resumed run re-verified everything: %d batches vs cold %d", warm.Batches, cold.Batches)
	}
}

func TestCheckpointStale(t *testing.T) {
	key := testKey(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log.lseal")
	ckptPath := logPath + ".ckpt" // streamFile's sidecar
	if _, err := WriteSyntheticLogFile(logPath, key, 100, 4); err != nil {
		t.Fatal(err)
	}
	opts := StreamOptions{VerifyOptions: VerifyOptions{Pub: &key.PublicKey}, Workers: 2}
	copts := opts
	copts.Checkpoint = &CheckpointConfig{EverySegments: 3}
	if _, err := streamFile(context.Background(), logPath, copts, nil); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the log (as Trim would): the checkpoint must be refused.
	if _, err := WriteSyntheticLogFile(logPath, key, 60, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := streamFile(context.Background(), logPath, opts, ck); !errors.Is(err, ErrCheckpointStale) {
		t.Fatalf("err = %v, want ErrCheckpointStale", err)
	}
}

// TestStreamResumeMidFailure ensures a resumed scan reaches the same
// verdict as a cold scan when the corruption sits past the checkpoint.
func TestStreamResumeMidFailure(t *testing.T) {
	key := testKey(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log.lseal")
	ckptPath := logPath + ".ckpt" // streamFile's sidecar
	if _, err := WriteSyntheticLogFile(logPath, key, 200, 5); err != nil {
		t.Fatal(err)
	}
	opts := StreamOptions{VerifyOptions: VerifyOptions{Pub: &key.PublicKey}, Workers: 4}
	copts := opts
	copts.Checkpoint = &CheckpointConfig{EverySegments: 5}
	stop := errors.New("stop")
	segs := 0
	copts.OnSegment = func(SegmentInfo) error {
		if segs++; segs >= 12 {
			return stop
		}
		return nil
	}
	if _, err := streamFile(context.Background(), logPath, copts, nil); !errors.Is(err, stop) {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte well past the checkpoint.
	img, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Offset+100 >= int64(len(img)) {
		t.Fatalf("log too small for test: ckpt %d size %d", ck.Offset, len(img))
	}
	img[ck.Offset+100] ^= 0xff
	if err := os.WriteFile(logPath, img, 0o644); err != nil {
		t.Fatal(err)
	}
	_, coldErr := streamFile(context.Background(), logPath, opts, nil)
	_, warmErr := streamFile(context.Background(), logPath, opts, ck)
	if coldErr == nil || warmErr == nil {
		t.Fatalf("corruption not detected: cold=%v warm=%v", coldErr, warmErr)
	}
	if !errors.Is(coldErr, ErrTampered) || !errors.Is(warmErr, ErrTampered) {
		t.Fatalf("want ErrTampered from both: cold=%v warm=%v", coldErr, warmErr)
	}
}

// TestSyntheticMatchesLiveWriter is a sanity check that the synthetic
// writer's output satisfies the real sequential verifier.
func TestSyntheticVerifies(t *testing.T) {
	key := testKey(t)
	img := synthLog(t, key, 40, 6)
	res, entries, err := verifyEntries(bytes.NewReader(img), VerifyOptions{Pub: &key.PublicKey}, imageShard)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 40 || res.MaxBatch != 6 {
		t.Fatalf("entries=%d maxBatch=%d", len(entries), res.MaxBatch)
	}
	// Counter freshness math: counters count up from 1 per batch.
	wantBatches := (40 + 5) / 6
	if res.Batches != wantBatches || res.Counter != uint64(wantBatches) {
		t.Fatalf("batches=%d counter=%d want %d", res.Batches, res.Counter, wantBatches)
	}
}

// TestStreamBadMagic locks the preemptive bad-magic verdict.
func TestStreamBadMagic(t *testing.T) {
	key := testKey(t)
	img := synthLog(t, key, 5, 1)
	img[0] ^= 0xff
	for _, tolerant := range []bool{false, true} {
		o := VerifyOptions{Pub: &key.PublicKey, RecoverTruncated: tolerant}
		runBoth(t, img, o, 2)
	}
}

// TestStreamOversizedRecord locks the shared record-size cap.
func TestStreamOversizedRecord(t *testing.T) {
	key := testKey(t)
	img := synthLog(t, key, 5, 1)
	var buf bytes.Buffer
	buf.Write(img)
	var hdr [5]byte
	hdr[0] = recEntry
	binary.BigEndian.PutUint32(hdr[1:], maxRecordBytes+1)
	buf.Write(hdr[:])
	for _, tolerant := range []bool{false, true} {
		o := VerifyOptions{Pub: &key.PublicKey, RecoverTruncated: tolerant}
		runBoth(t, buf.Bytes(), o, 2)
	}
}
