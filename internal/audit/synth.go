package audit

import (
	"bufio"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"
	"os"

	"libseal/internal/sqldb"
)

// Synthetic log generation. Benchmarks and the corruption-matrix tests need
// logs far larger (or far more precisely shaped) than driving the full
// enclave stack allows, so this writer produces the persisted wire format
// directly from a raw ECDSA key: same magic, same records, same chain and
// signature math as the live writer — a verifier cannot distinguish the
// two, and the golden-vector tests pin the live writer to this format.

// SyntheticBatch is one commit point of a synthetic log: the entries one
// signature record covers and the counter value it attests. An empty
// Entries slice produces a bare signature record, the shape Reanchor and
// recovery leave behind.
type SyntheticBatch struct {
	Entries []*Entry
	Counter uint64
}

// WriteSyntheticBatches writes magic plus the given batches as a persisted
// log, signing each commit point with key exactly as the enclave would.
// Entry Seq fields are used as given; callers wanting a well-formed log
// must number them contiguously from seq.
func WriteSyntheticBatches(w io.Writer, key *ecdsa.PrivateKey, batches []SyntheticBatch) (int64, error) {
	bw := newSynthWriter(w, key)
	for _, b := range batches {
		for _, e := range b.Entries {
			bw.add(e)
		}
		if err := bw.commit(b.Counter); err != nil {
			return bw.size, err
		}
	}
	return bw.size, bw.err
}

// WriteSyntheticLog writes n entries grouped into batches of batchMax
// (1 for the per-entry format), counters counting up from 1 — the shape a
// healthy group-commit run persists. Returns the file size.
func WriteSyntheticLog(w io.Writer, key *ecdsa.PrivateKey, n, batchMax int) (int64, error) {
	if batchMax < 1 {
		batchMax = 1
	}
	bw := newSynthWriter(w, key)
	counter := uint64(0)
	for i := 0; i < n; i++ {
		bw.add(SyntheticEntry(uint64(i)))
		if len(bw.group) >= batchMax || i == n-1 {
			counter++
			if err := bw.commit(counter); err != nil {
				return bw.size, err
			}
		}
	}
	return bw.size, bw.err
}

// WriteSyntheticLogFile is WriteSyntheticLog to a file path.
func WriteSyntheticLogFile(path string, key *ecdsa.PrivateKey, n, batchMax int) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	size, err := WriteSyntheticLog(bw, key, n, batchMax)
	if err != nil {
		return size, err
	}
	if err := bw.Flush(); err != nil {
		return size, err
	}
	return size, f.Sync()
}

// SyntheticEntry builds a deterministic entry shaped like the git module's
// reference-update rows: a couple of text columns and an integer, roughly
// 100 bytes on the wire.
func SyntheticEntry(seq uint64) *Entry {
	return &Entry{
		Seq:   seq,
		Table: "updates",
		Values: []sqldb.Value{
			sqldb.Int(int64(seq)),
			sqldb.Text(fmt.Sprintf("refs/heads/branch-%d", seq%97)),
			sqldb.Text(fmt.Sprintf("%040x", seq)),
			sqldb.Text("push"),
		},
	}
}

// synthSign produces a signature record payload as the live writer's
// signState does, from a raw key.
func synthSign(key *ecdsa.PrivateKey, chain [32]byte, counter uint64, prev [32]byte) ([]byte, error) {
	r, s, err := ecdsa.Sign(rand.Reader, key, sigDigest(chain, counter, prev))
	if err != nil {
		return nil, err
	}
	return sigPayload(chain, counter, prev, r.Bytes(), s.Bytes()), nil
}

// synthWriter incrementally builds a synthetic log: add stages entries,
// commit signs the batch staged so far at the given counter value and writes
// it, signature record included, as one group — as the live writer does.
type synthWriter struct {
	w       io.Writer
	key     *ecdsa.PrivateKey
	chain   [32]byte
	sigHead [32]byte
	group   []record // the batch staged so far
	size    int64
	err     error
}

func newSynthWriter(w io.Writer, key *ecdsa.PrivateKey) *synthWriter {
	_, err := w.Write(fileMagic)
	return &synthWriter{w: w, key: key, size: int64(len(fileMagic)), err: err}
}

func (s *synthWriter) add(e *Entry) {
	s.group = append(s.group, record{typ: recEntry, payload: e.Marshal()})
}

func (s *synthWriter) commit(counter uint64) error {
	if s.err != nil {
		return s.err
	}
	s.chain = batchChain(s.chain, s.group)
	var sig []byte
	if sig, s.err = synthSign(s.key, s.chain, counter, s.sigHead); s.err != nil {
		return s.err
	}
	n, err := writeRecords(s.w, append(s.group, record{typ: recSig, payload: sig}))
	if s.err = err; err != nil {
		return err
	}
	s.sigHead = sha256.Sum256(sig)
	s.size += n
	s.group = s.group[:0]
	return nil
}
