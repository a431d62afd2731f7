package audit

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"libseal/internal/asyncall"
	"libseal/internal/enclave"
	"libseal/internal/pki"
)

// The golden-vector corpus locks the persisted wire format across PRs:
// committed log files written by the live enclave writer — per-entry,
// batched, degraded-episode and trimmed shapes — with the expected
// verification outcome committed alongside. The enclave platform state is
// committed too (testdata/golden/platform.state), so regeneration derives
// the same signing key and the committed public key keeps verifying
// regenerated files.
//
// Regenerate with:
//
//	go test ./internal/audit -run TestGolden -update
//
// Only signature R/S scalars (ECDSA nonces) and the links digesting them
// change across regenerations; TestGoldenPerEntryByteIdentity compares
// everything else.

var updateGolden = flag.Bool("update", false, "regenerate the golden-vector corpus")

const (
	goldenDir  = "testdata/golden"
	goldenCode = "libseal-golden-v1"
)

// goldenExpect is the committed expected outcome of verifying one vector.
type goldenExpect struct {
	Entries        int            `json:"entries"`
	Counter        uint64         `json:"counter"`
	CommittedBytes int64          `json:"committed_bytes"`
	Batches        int            `json:"batches"`
	MaxBatch       int            `json:"max_batch"`
	Tables         map[string]int `json:"tables"`
	// EntryHash is the hex SHA-256 over the concatenated canonical
	// encodings of the verified entries, in file order — a compact pin on
	// the full decoded contents.
	EntryHash string `json:"entry_sha256"`
}

// scriptedProtector is a deterministic rollback protector for golden
// generation: each counter counts up from zero on its own, so the shard's
// values do not depend on the manifest lane's, and failures are scripted by
// flipping fail.
type scriptedProtector struct {
	n    map[string]uint64
	fail bool
}

func (p *scriptedProtector) Increment(name string) (uint64, error) {
	if p.fail {
		return 0, errors.New("quorum unreachable (scripted)")
	}
	p.n[name]++
	return p.n[name], nil
}

func (p *scriptedProtector) Read(name string) (uint64, error) {
	if p.fail {
		return 0, errors.New("quorum unreachable (scripted)")
	}
	return p.n[name], nil
}

// goldenEnv launches an enclave from the committed platform state (created
// on -update) so the signing key is identical across regenerations.
type goldenEnv struct {
	encl      *enclave.Enclave
	bridge    *asyncall.Bridge
	protector *scriptedProtector
}

func newGoldenEnv(t *testing.T) *goldenEnv {
	t.Helper()
	statePath := filepath.Join(goldenDir, "platform.state")
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	} else if _, err := os.Stat(statePath); err != nil {
		t.Fatalf("golden corpus missing (%v); run with -update to generate", err)
	}
	p, err := enclave.LoadOrCreatePlatform(statePath)
	if err != nil {
		t.Fatal(err)
	}
	encl, err := p.Launch(enclave.Config{Code: []byte(goldenCode), MaxThreads: 4, Cost: enclave.ZeroCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	bridge, err := asyncall.New(encl, asyncall.Config{Mode: asyncall.ModeSync})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bridge.Close)
	return &goldenEnv{encl: encl, bridge: bridge, protector: &scriptedProtector{n: map[string]uint64{}}}
}

func (e *goldenEnv) call(t *testing.T, fn func(env *asyncall.Env) error) {
	t.Helper()
	if err := e.bridge.Call(fn); err != nil {
		t.Fatal(err)
	}
}

func (e *goldenEnv) config(dir string, batchMax, degradedLimit int) Config {
	return Config{
		Name: "golden", Schema: testSchema, Mode: ModeDisk, Dir: dir,
		Protector: e.protector, BatchMax: batchMax, DegradedLimit: degradedLimit,
	}
}

// goldenVectors describes the corpus: each generator writes a one-shard set
// named golden into dir using the live writer; its shard file is the vector.
var goldenVectors = []struct {
	name string
	gen  func(t *testing.T, e *goldenEnv, dir string)
}{
	{"perentry", genPerEntry},
	{"batched", genBatched},
	{"degraded", genDegraded},
	{"trimmed", genTrimmed},
}

// genPerEntry: BatchMax <= 1, the conservative entry-at-a-time format —
// one signature record and one counter increment per append.
func genPerEntry(t *testing.T, e *goldenEnv, dir string) {
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		if l, err = newOneShard(env, e.config(dir, 0, 0)); err != nil {
			return err
		}
		for i := 1; i <= 5; i++ {
			if err := l.Append(env, "updates", i, "repo-a", "main",
				fmt.Sprintf("c%02d", i), "update"); err != nil {
				return err
			}
		}
		if err := l.Append(env, "advertisements", 6, "repo-a", "main", "c05"); err != nil {
			return err
		}
		return l.Append(env, "advertisements", 7, "repo-b", "dev", "c01")
	})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// genBatched: group commit, three staged groups under BatchMax 3 — multiple
// entries per signature record.
func genBatched(t *testing.T, e *goldenEnv, dir string) {
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		if l, err = newOneShard(env, e.config(dir, 3, 0)); err != nil {
			return err
		}
		groups := [][]Row{
			{
				{Table: "updates", Values: []any{1, "repo-a", "main", "c01", "update"}},
				{Table: "updates", Values: []any{2, "repo-a", "main", "c02", "update"}},
				{Table: "updates", Values: []any{3, "repo-a", "dev", "c03", "update"}},
			},
			{
				{Table: "updates", Values: []any{4, "repo-b", "main", "c04", "update"}},
				{Table: "advertisements", Values: []any{5, "repo-b", "main", "c04"}},
				{Table: "updates", Values: []any{6, "repo-b", "main", "c05", "delete"}},
			},
			{
				{Table: "advertisements", Values: []any{7, "repo-a", "main", "c03"}},
				{Table: "updates", Values: []any{8, "repo-a", "main", "c06", "update"}},
			},
		}
		for _, rows := range groups {
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
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// genDegraded: a degraded episode mid-log — the counter quorum drops out,
// appends persist signed at the stale counter, then Reanchor closes the gap
// with a bare signature record at a fresh value.
func genDegraded(t *testing.T, e *goldenEnv, dir string) {
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		if l, err = newOneShard(env, e.config(dir, 0, 8)); err != nil {
			return err
		}
		for i := 1; i <= 2; i++ {
			if err := l.Append(env, "updates", i, "repo-a", "main",
				fmt.Sprintf("c%02d", i), "update"); err != nil {
				return err
			}
		}
		e.protector.fail = true
		for i := 3; i <= 5; i++ {
			if err := l.Append(env, "updates", i, "repo-a", "main",
				fmt.Sprintf("c%02d", i), "update"); err != nil {
				return err
			}
		}
		e.protector.fail = false
		if err := l.Reanchor(env); err != nil {
			return err
		}
		return l.Append(env, "updates", 6, "repo-a", "main", "c06", "update")
	})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// genTrimmed: history trimmed away mid-life — the chain is rebuilt over the
// survivors, re-anchored and re-signed, then appended to again.
func genTrimmed(t *testing.T, e *goldenEnv, dir string) {
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		if l, err = newOneShard(env, e.config(dir, 0, 0)); err != nil {
			return err
		}
		for i := 1; i <= 6; i++ {
			if err := l.Append(env, "updates", i, "repo-a", "main",
				fmt.Sprintf("c%02d", i), "update"); err != nil {
				return err
			}
		}
		if err := l.Trim(env, []string{"DELETE FROM updates WHERE time <= 3"}); err != nil {
			return err
		}
		return l.Append(env, "updates", 7, "repo-a", "main", "c07", "update")
	})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// expectFor summarises a verification result as a goldenExpect.
func expectFor(res *refResult) goldenExpect {
	h := sha256.New()
	tables := map[string]int{}
	for _, e := range res.Entries {
		h.Write(e.Marshal())
		tables[e.Table]++
	}
	return goldenExpect{
		Entries:        len(res.Entries),
		Counter:        res.Counter,
		CommittedBytes: res.CommittedBytes,
		Batches:        res.Batches,
		MaxBatch:       res.MaxBatch,
		Tables:         tables,
		EntryHash:      hex.EncodeToString(h.Sum(nil)),
	}
}

// TestGoldenVectors verifies every committed vector with the reference
// verifier and every production driver (runBoth) and compares the outcome
// against the committed expectation. With -update it regenerates the whole corpus from
// the live writer first.
func TestGoldenVectors(t *testing.T) {
	e := newGoldenEnv(t)
	pub := e.encl.PublicKey()

	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		pemData, err := pki.EncodePublicKeyPEM(pub)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(goldenDir, "pub.pem"), pemData, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, v := range goldenVectors {
			dir := t.TempDir()
			v.gen(t, e, dir)
			img, err := os.ReadFile(filepath.Join(dir, ShardName("golden", 0)+".lseal"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(goldenDir, v.name+".lseal"), img, 0o644); err != nil {
				t.Fatal(err)
			}
			res, err := resultOf(verifyEntries(bytes.NewReader(img), VerifyOptions{Pub: pub}, imageShard))
			if err != nil {
				t.Fatalf("%s: generated vector does not verify: %v", v.name, err)
			}
			exp := expectFor(res)
			data, err := json.MarshalIndent(exp, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, '\n')
			if err := os.WriteFile(filepath.Join(goldenDir, v.name+".json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The committed public key must match the one the committed platform
	// state derives — otherwise the corpus is internally inconsistent.
	pemData, err := os.ReadFile(filepath.Join(goldenDir, "pub.pem"))
	if err != nil {
		t.Fatalf("golden corpus missing (%v); run with -update to generate", err)
	}
	committedPub, err := pki.DecodePublicKeyPEM(pemData)
	if err != nil {
		t.Fatal(err)
	}
	if !committedPub.Equal(pub) {
		t.Fatal("committed pub.pem does not match the committed platform state")
	}

	for _, v := range goldenVectors {
		v := v
		t.Run(v.name, func(t *testing.T) {
			img, err := os.ReadFile(filepath.Join(goldenDir, v.name+".lseal"))
			if err != nil {
				t.Fatal(err)
			}
			var want goldenExpect
			data, err := os.ReadFile(filepath.Join(goldenDir, v.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			opts := VerifyOptions{Pub: committedPub}
			for _, workers := range []int{1, 4} {
				seqRes, strRes := runBoth(t, img, opts, workers)
				if seqRes == nil {
					t.Fatal("golden vector failed verification")
				}
				// driversAgree has held every driver to the reference, the
				// entries they delivered included.
				got := expectFor(seqRes)
				if got.Entries != want.Entries || got.Counter != want.Counter ||
					got.CommittedBytes != want.CommittedBytes || got.Batches != want.Batches ||
					got.MaxBatch != want.MaxBatch || got.EntryHash != want.EntryHash || strRes.TotalEntries != want.Entries {
					t.Fatalf("verification diverges from committed expectation:\n  got  %+v (driver total %d)\n  want %+v", got, strRes.TotalEntries, want)
				}
				for table, n := range want.Tables {
					if got.Tables[table] != n || strRes.Tables[table] != n {
						t.Fatalf("table %s: %d entries (driver %d), want %d", table, got.Tables[table], strRes.Tables[table], n)
					}
				}
			}
		})
	}
}

// TestGoldenPerEntryByteIdentity regenerates the per-entry vector with the
// committed platform state and asserts the writer still produces the
// committed bytes — record for record, with only the signature R/S scalars
// (ECDSA nonces) and the links that hash them allowed to differ. This locks
// the wire format: record framing, entry encoding, chain math and the signed
// chain-head-and-counter prefix.
func TestGoldenPerEntryByteIdentity(t *testing.T) {
	e := newGoldenEnv(t)
	committed, err := os.ReadFile(filepath.Join(goldenDir, "perentry.lseal"))
	if err != nil {
		t.Fatalf("golden corpus missing (%v); run with -update to generate", err)
	}
	dir := t.TempDir()
	genPerEntry(t, e, dir)
	fresh, err := os.ReadFile(filepath.Join(dir, ShardName("golden", 0)+".lseal"))
	if err != nil {
		t.Fatal(err)
	}

	wantRecs, err := referenceRecords(bytes.NewReader(committed), false)
	if err != nil {
		t.Fatal(err)
	}
	gotRecs, err := referenceRecords(bytes.NewReader(fresh), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRecs) != len(wantRecs) {
		t.Fatalf("record count changed: %d, committed %d", len(gotRecs), len(wantRecs))
	}
	for i := range wantRecs {
		w, g := wantRecs[i], gotRecs[i]
		if g.typ != w.typ {
			t.Fatalf("record %d: type %q, committed %q", i, g.typ, w.typ)
		}
		switch w.typ {
		case recEntry:
			if !bytes.Equal(g.payload, w.payload) {
				t.Fatalf("record %d: entry payload changed:\n  got  %x\n  want %x", i, g.payload, w.payload)
			}
		case recSig:
			// chain head (32) + counter (8) must be byte-identical; the link
			// after them digests the previous record's nonce-randomised
			// scalars, and so differs with them — except the first, zero.
			if len(w.payload) < 40 || len(g.payload) < 40 {
				t.Fatalf("record %d: short signature payload", i)
			}
			if !bytes.Equal(g.payload[:40], w.payload[:40]) {
				t.Fatalf("record %d: signed state changed:\n  got  %x\n  want %x", i, g.payload[:40], w.payload[:40])
			}
			if sr, err := parseSig(g.payload); err != nil || (i == 1 && sr.prev != [32]byte{}) {
				t.Fatalf("record %d: signature record does not parse as format 3 (%v), or the file's first links to %x", i, err, sr.prev[:4])
			}
		}
	}
}
