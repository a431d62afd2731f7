package audit

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"libseal/internal/asyncall"
)

// Tests for log format 3's chain rule (DESIGN.md §9): the head advances once
// per batch, over the batch's entry records exactly as they lie in the file.

// chainVectorHeads are the heads after each batch of chainVectorLog, computed
// once from the file's bytes with crypto/sha256 and committed: a change to the
// chain rule, the record framing or the entry encoding changes them.
var chainVectorHeads = []string{
	"ab81e59b89a793d4a028f5d79838503b45e448c3aee5c31b9b73afb97a1d4057",
	"79731401ff063010b1ee32f07454b2f8917b9414c5a924393866ecd02e9d3fff",
	"9cca7018a0544c931489deab96edbc03cc71a862b83a4aa07981acdda32a75bb",
}

// chainVectorLog is a fixed three-batch log — entries 0–1, 2–4, then 5 — of
// deterministic entries: its chain heads do not depend on the key.
func chainVectorLog(t testing.TB, key *ecdsa.PrivateKey) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteSyntheticBatches(&buf, key, []SyntheticBatch{
		{Entries: []*Entry{SyntheticEntry(0), SyntheticEntry(1)}, Counter: 1},
		{Entries: []*Entry{SyntheticEntry(2), SyntheticEntry(3), SyntheticEntry(4)}, Counter: 2},
		{Entries: []*Entry{SyntheticEntry(5)}, Counter: 3},
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChainVector recomputes every head of the fixed log straight from its
// bytes — H_k = SHA-256(H_{k-1} ‖ the batch's entry records as they lie) —
// and holds them to the committed constants and to what the signature records
// attest; every driver accepts the log and reports the last head.
func TestChainVector(t *testing.T) {
	key := testKey(t)
	img := chainVectorLog(t, key)
	var head [32]byte
	batch := 0
	from := len(fileMagic)
	for off := from; off < len(img); {
		typ, n := img[off], int(binary.BigEndian.Uint32(img[off+1:]))
		if typ == recSig {
			head = sha256.Sum256(append(head[:], img[from:off]...))
			if got := hex.EncodeToString(head[:]); got != chainVectorHeads[batch] {
				t.Errorf("H_%d = %s, committed %s", batch+1, got, chainVectorHeads[batch])
			}
			if attested := img[off+5 : off+5+32]; !bytes.Equal(attested, head[:]) {
				t.Errorf("signature record %d attests %x, the bytes hash to %x", batch, attested, head)
			}
			batch++
			from = off + 5 + n
		}
		off += 5 + n
	}
	if batch != len(chainVectorHeads) {
		t.Fatalf("%d signature records, want %d", batch, len(chainVectorHeads))
	}
	res, _, err := driversAgree(t, img, VerifyOptions{Pub: &key.PublicKey}, []int{1, 2})
	if err != nil || res.Chain != head {
		t.Fatalf("verified head %x, %v; want %x", res.Chain, err, head)
	}
}

// TestEntryMovedAcrossSignature: the chain fixes where each batch ends, so an
// entry moved from the end of one batch to the start of the next — the
// entries and their order unchanged — fails at the earlier signature record.
func TestEntryMovedAcrossSignature(t *testing.T) {
	key := testKey(t)
	recs := imageRecords(t, chainVectorLog(t, key))
	sigs := sigRecords(recs)
	// [e0 e1 S0] [e2 e3 e4 S1] [e5 S2] → [e0 S0] [e1 e2 e3 e4 S1] [e5 S2]
	moved := append(append(append([]referenceRecord{}, recs[:1]...), recs[sigs[0]], recs[1]), recs[sigs[0]+1:]...)
	img := buildImage(moved)
	sig0 := imageRecords(t, img)[1].headerOff()
	// Tolerant mode: the damage is followed by signature records, so it sits
	// inside the signed prefix.
	for tolerant, want := range map[bool]string{false: "signature record 0: chain hash mismatch", true: "corrupted entry inside signed prefix"} {
		opts := VerifyOptions{Pub: &key.PublicKey, RecoverTruncated: tolerant}
		if _, _, err := driversAgree(t, img, opts, []int{1, 2}); err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Fatalf("tolerant=%v: %v, want %q", tolerant, err, want)
		}
		_, _, err := verifyEntries(bytes.NewReader(img), opts, imageShard)
		var ve *VerifyError
		if !errors.As(err, &ve) || ve.Batch != 0 || ve.Record != -1 || ve.Offset != sig0 {
			t.Fatalf("tolerant=%v: %v, want it located at signature record 0", tolerant, err)
		}
	}
}

// TestBareSignatureKeepsHead: a signature record with no entries before it —
// the shape Reanchor and recovery's re-anchor leave — attests the head the
// record before it did, in the live writer's degraded golden image and in a
// synthetic log alike.
func TestBareSignatureKeepsHead(t *testing.T) {
	key := testKey(t)
	var synth bytes.Buffer
	if _, err := WriteSyntheticBatches(&synth, key, []SyntheticBatch{
		{Entries: []*Entry{SyntheticEntry(0)}, Counter: 1},
		{Counter: 2},
		{Entries: []*Entry{SyntheticEntry(1)}, Counter: 3},
	}); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join(goldenDir, "degraded.lseal"))
	if err != nil {
		t.Fatal(err)
	}
	for name, img := range map[string][]byte{"synthetic": synth.Bytes(), "degraded golden": golden} {
		recs := imageRecords(t, img)
		bare := 0
		for i := 1; i < len(recs); i++ {
			if recs[i].typ == recSig && recs[i-1].typ == recSig {
				bare++
				if !bytes.Equal(recs[i].payload[:32], recs[i-1].payload[:32]) {
					t.Errorf("%s: bare signature record %d moved the head", name, i)
				}
			}
		}
		if bare == 0 {
			t.Fatalf("%s: no bare signature record", name)
		}
	}
	if _, _, err := driversAgree(t, synth.Bytes(), VerifyOptions{Pub: &key.PublicKey}, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverAdoptsVerifiedHead: recovery takes the head the verified commit
// point attests and re-anchors and appends from it; the file then verifies
// strictly.
func TestRecoverAdoptsVerifiedHead(t *testing.T) {
	e := newAuditEnv(t)
	cfg := e.diskConfig("private")
	cfg.BatchMax = 4
	var l *oneShard
	e.call(t, func(env *asyncall.Env) (err error) {
		if l, err = newOneShard(env, cfg); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			rows := []Row{
				{Table: "updates", Values: []any{2 * i, "r", "main", fmt.Sprintf("c%d", 2*i), "update"}},
				{Table: "advertisements", Values: []any{2*i + 1, "r", "main", fmt.Sprintf("c%d", 2*i)}},
			}
			tk, err := l.Stage(env, rows)
			if err != nil {
				return err
			}
			if err := tk.Wait(env); err != nil {
				return err
			}
		}
		return nil
	})
	before := l.ChainHash()
	l.Close()
	path := filepath.Join(e.dir, "private-shard0.lseal")
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := imageRecords(t, img)
	if last := recs[len(recs)-1]; last.typ != recSig || !bytes.Equal(last.payload[:32], before[:]) {
		t.Fatal("the file's last signature record does not attest the log's head")
	}
	opts := VerifyOptions{Pub: e.encl.PublicKey()}
	res, _, err := verifyEntries(bytes.NewReader(img), opts, imageShard)
	if err != nil || res.Chain != before {
		t.Fatalf("verified head %x, %v; want %x", res.Chain, err, before)
	}

	e.call(t, func(env *asyncall.Env) (err error) {
		if l, err = recoverOneShard(env, cfg, e.encl.PublicKey()); err != nil {
			return err
		}
		if got := l.ChainHash(); got != before {
			return fmt.Errorf("recovered head %x, want %x", got, before)
		}
		return l.Append(env, "updates", 7, "r", "main", "c7", "update")
	})
	defer l.Close()
	if img, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	recs = imageRecords(t, img)
	reanchor := recs[len(recs)-3] // the re-anchor, then the append's entry and signature
	if reanchor.typ != recSig || !bytes.Equal(reanchor.payload[:32], before[:]) {
		t.Fatal("recovery's re-anchor does not attest the verified head")
	}
	if _, err := verifyFile(path, opts); err != nil {
		t.Fatalf("recovered log no longer verifies: %v", err)
	}
}

// commitSetOracle is commitSet's former shape, a map, kept as the oracle of
// TestCommitSetMatchesMap.
type commitSetOracle struct {
	baseSeq uint64
	pts     map[ShardState]bool
}

func (o *commitSetOracle) has(st ShardState) bool { return st.Seq < o.baseSeq || o.pts[st] }

// TestCommitSetMatchesMap: the slice searched by Seq answers every query as
// the map did — for a cold scan, a log with bare signature records (repeated
// Seqs), a trimmed-then-appended file and a resumed scan, which scans from
// its checkpoint rather than the empty log.
func TestCommitSetMatchesMap(t *testing.T) {
	pt := func(seq, counter uint64, c byte) ShardState {
		return ShardState{Seq: seq, Counter: counter, Chain: [32]byte{c}}
	}
	for _, c := range []struct {
		name   string
		pts    []ShardState
		resume *ShardState
	}{
		{"cold", []ShardState{pt(2, 1, 1), pt(5, 2, 2), pt(9, 3, 3)}, nil},
		{"bare signature records", []ShardState{pt(2, 1, 1), pt(2, 2, 1), pt(2, 3, 1), pt(4, 4, 2), pt(4, 5, 2)}, nil},
		{"trimmed then appended", []ShardState{pt(3, 7, 4), pt(3, 8, 4), pt(4, 9, 5)}, nil},
		{"resumed", []ShardState{pt(6, 4, 6), pt(6, 5, 6), pt(8, 6, 7)}, &ShardState{Seq: 6, Counter: 3, Chain: [32]byte{5}}},
		{"resumed at zero", []ShardState{pt(0, 2, 0), pt(1, 3, 1)}, &ShardState{Seq: 0, Counter: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cs := newCommitSet(nil)
			oracle := &commitSetOracle{pts: map[ShardState]bool{{}: true}}
			if c.resume != nil {
				cs = &commitSet{base: c.resume}
				oracle = &commitSetOracle{baseSeq: c.resume.Seq, pts: map[ShardState]bool{*c.resume: true}}
			}
			for _, p := range c.pts {
				cs.pts = append(cs.pts, p)
				oracle.pts[p] = true
			}
			queries := []ShardState{{}, pt(0, 0, 1), pt(1, 0, 0)}
			for p := range oracle.pts {
				for _, d := range []int64{-1, 0, 1} {
					queries = append(queries, p,
						ShardState{Seq: uint64(int64(p.Seq) + d), Counter: p.Counter, Chain: p.Chain},
						ShardState{Seq: p.Seq, Counter: uint64(int64(p.Counter) + d), Chain: p.Chain},
						ShardState{Seq: p.Seq, Counter: p.Counter, Chain: [32]byte{p.Chain[0] + byte(d)}})
				}
			}
			for _, q := range queries {
				if got, want := cs.has(q), oracle.has(q); got != want {
					t.Fatalf("has(seq=%d counter=%d chain=%x…) = %v, the map says %v", q.Seq, q.Counter, q.Chain[:1], got, want)
				}
			}
		})
	}
}

// manifestOnly vouches for the manifest counter alone: shard counters read as
// zero, so a rolled-back shard passes its own freshness check and the
// manifests are the only evidence against it.
type manifestOnly struct{ RollbackProtector }

func (p manifestOnly) Read(name string) (uint64, error) {
	if strings.HasSuffix(name, "-manifest") {
		return p.RollbackProtector.Read(name)
	}
	return 0, nil
}

// TestManifestReplayPrecedence: the sidecar's records are read and checked
// while the shards scan, and judged against them afterwards; the verdict must
// be the one a record-by-record replay after the scan reaches. Every case
// tampers with two things and names the one that must win: a shard's own
// error first; then the manifests in record order, each checked on its own
// (shard count, epoch, counter, signature) and then for membership — so an
// earlier manifest's missing commit point beats a later one's bad signature,
// and the reverse; then the sidecar's freshness.
func TestManifestReplayPrecedence(t *testing.T) {
	e := newAuditEnv(t)
	var s *ShardedLog
	var rolled []byte // shard 0 at its first commit point
	shard0, shard1 := filepath.Join(e.dir, ShardName("git", 0)+".lseal"), filepath.Join(e.dir, ShardName("git", 1)+".lseal")
	e.call(t, func(env *asyncall.Env) (err error) {
		if s, err = NewSharded(env, e.shardConfig("git", 2)); err != nil { // manifest 0: the empty shards
			return err
		}
		keys := [2]uint64{keyForShard(s, 0), keyForShard(s, 1)}
		for round := 1; round <= 3; round++ { // manifests 1–3, after each round of appends
			for k, key := range keys {
				if err := s.Append(env, key, "updates", 10*round+k, "r", "main", fmt.Sprintf("c%d", round), "update"); err != nil {
					return err
				}
			}
			if round == 1 {
				if rolled, err = os.ReadFile(shard0); err != nil {
					return err
				}
			}
			if err := s.WriteManifest(env); err != nil {
				return err
			}
		}
		return nil
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sidecar := filepath.Join(e.dir, ManifestFileName("git"))
	pristine := map[string][]byte{}
	for _, p := range []string{shard0, shard1, sidecar} {
		pristine[p] = mustReadFile(t, p)
	}
	manifests := func() (ends []int) { // end offset of each manifest record
		img := pristine[sidecar]
		for off := len(manifestMagic); off < len(img); {
			off += 5 + int(binary.BigEndian.Uint32(img[off+1:]))
			ends = append(ends, off)
		}
		return ends
	}()
	if len(manifests) != 4 {
		t.Fatalf("%d manifests, want 4", len(manifests))
	}
	// The tampers. shardError flips a byte only the chain sees in shard 1's
	// first entry; rollback puts shard 0 back at its first commit point, which
	// manifests 2 and 3 attest past; badSig(i) flips the last byte of manifest
	// i's S; dropLast discards the last manifest.
	tamper := map[string]func(files map[string][]byte){
		"shardError": func(f map[string][]byte) {
			img := bytes.Clone(f[shard1])
			img[imageRecords(t, img)[0].end-1] ^= 0x01
			f[shard1] = img
		},
		"rollback": func(f map[string][]byte) { f[shard0] = rolled },
		"badSig1":  func(f map[string][]byte) { f[sidecar] = mutate(f[sidecar], manifests[1]-1, true) },
		"badSig2":  func(f map[string][]byte) { f[sidecar] = mutate(f[sidecar], manifests[2]-1, true) },
		"badSig3":  func(f map[string][]byte) { f[sidecar] = mutate(f[sidecar], manifests[3]-1, true) },
		"dropLast": func(f map[string][]byte) { f[sidecar] = f[sidecar][:manifests[2]] },
	}
	const (
		shardWins   = "shard 1 (git-shard1.lseal): audit: log integrity violation: signature record 0: chain hash mismatch"
		rolledBack  = "epoch manifest 3 attests shard 0 at seq=2"
		staleCar    = "manifest sidecar: audit: rollback detected"
		sig1Invalid = "manifest 1 (epoch 2): signature invalid"
		sig2Invalid = "manifest 2 (epoch 3): signature invalid"
	)
	for _, c := range []struct {
		a, b string
		want string
	}{
		{"shardError", "badSig1", shardWins},
		{"shardError", "rollback", shardWins},
		{"shardError", "dropLast", shardWins},
		{"rollback", "badSig2", sig2Invalid}, // the same manifest: its own check first
		{"rollback", "badSig1", sig1Invalid}, // a bad record before the first missing point
		{"rollback", "badSig3", rolledBack},  // a missing point before the first bad record
		{"badSig1", "dropLast", sig1Invalid}, // the records before the sidecar's freshness
		{"rollback", "dropLast", rolledBack}, // membership before the sidecar's freshness
		{"shardError", "", shardWins},        // each tamper on its own, for reference
		{"rollback", "", rolledBack},
		{"badSig3", "", "manifest 3 (epoch 4): signature invalid"},
		{"dropLast", "", staleCar},
	} {
		t.Run(c.a+"+"+c.b, func(t *testing.T) {
			files := map[string][]byte{}
			for p, img := range pristine {
				files[p] = img
			}
			tamper[c.a](files)
			if c.b != "" {
				tamper[c.b](files)
			}
			for p, img := range files {
				if err := os.WriteFile(p, img, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, err := VerifyPath(context.Background(), e.dir, StreamOptions{
				VerifyOptions: VerifyOptions{Pub: e.encl.PublicKey(), Protector: manifestOnly{e.group}},
			})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%v, want %q", err, c.want)
			}
		})
	}
}

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
