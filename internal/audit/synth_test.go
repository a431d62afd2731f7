package audit

import (
	"bufio"
	"crypto/ecdsa"
	"io"
	"os"
)

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
