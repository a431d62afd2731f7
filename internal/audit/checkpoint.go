package audit

import (
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"libseal/internal/vfs"
)

// Resumable verification checkpoints (DESIGN.md §13). A checkpoint is a
// small JSON sidecar recording the verified prefix state at a commit point:
// the offset just past a signature record, the chain head and counter that
// record attests, and running totals. The sidecar sits in the provider's
// directory, so each field counts only as far as something vouches for it:
//
//   - The shard file's signature binds Offset, SigOffset, SigHash, Chain and
//     Counter: a restarted verifier re-binds the checkpoint to the log
//     (matchFile) — the signature record at SigOffset must end at Offset,
//     hash to SigHash, parse, carry a valid enclave signature and attest
//     exactly the sidecar's head and counter — or the sidecar is
//     ErrCheckpointStale and the shard is scanned cold.
//   - The set's manifests vouch for Seq and Shard, which the record does not
//     bind: a shard resumes only where a manifest attests it at or past the
//     checkpoint's Seq, and is scanned cold otherwise; the manifest replay
//     then requires that attested state to be the checkpoint itself or a
//     point the resumed scan reached (verifyShard, DESIGN.md §14).
//   - Batches, MaxBatch and Tables are covered by the self-digest (Sum)
//     alone, which catches rot but not an edit: they are the sidecar's word
//     for the prefix a resumed scan skips.
//
// So a forged sidecar cannot make a resumed scan accept what a cold scan
// would reject. The sidecar is replaced atomically and only ever taken at a
// fully verified commit point, so a resume never skips an unverified byte.

const (
	checkpointVersion = 2 // its chain head is log format 3's: another version's is stale

	// defaultCheckpointSegments / defaultCheckpointBytes bound how much
	// re-verification a crash can cost when CheckpointConfig doesn't say.
	defaultCheckpointSegments = 64
	defaultCheckpointBytes    = 4 << 20
)

// ErrCheckpointStale reports a checkpoint that does not match the log file
// it is being resumed against.
var ErrCheckpointStale = errors.New("audit: checkpoint does not match log file")

// CheckpointConfig tells the streaming verifier how often to persist
// resumable progress to a file's sidecar, <file>.ckpt (StreamOptions.Checkpoint).
type CheckpointConfig struct {
	// EverySegments writes a checkpoint after this many committed segments
	// (default 64).
	EverySegments int
	// EveryBytes writes a checkpoint after this many verified entry bytes
	// (default 4 MiB). Whichever of the two thresholds trips first wins.
	EveryBytes int64
	// OnError observes checkpoint write failures; verification itself is
	// unaffected (a lost checkpoint only costs re-verification later).
	OnError func(error)
}

// Checkpoint is the persisted sidecar state.
type Checkpoint struct {
	Version int `json:"version"`
	// Shard is the shard ordinal this checkpoint belongs to (omitted from
	// the JSON for shard 0).
	Shard int `json:"shard,omitempty"`
	// Offset is the verified prefix length: the offset just past the
	// signature record the checkpoint was taken at.
	Offset int64 `json:"offset"`
	// Seq is the next expected entry sequence number (= entries verified).
	Seq uint64 `json:"seq"`
	// Chain is the hex chain head the signature record attests.
	Chain string `json:"chain"`
	// Counter is the rollback-counter value at the commit point.
	Counter uint64 `json:"counter"`
	// Batches / MaxBatch / Tables are running verification totals for the
	// checkpointed prefix (its entry count is Seq).
	Batches  int            `json:"batches"`
	MaxBatch int            `json:"max_batch"`
	Tables   map[string]int `json:"tables,omitempty"`
	// SigOffset is the file offset of the signature record's header and
	// SigHash the hex SHA-256 of its payload; together they bind the
	// checkpoint to one specific log file.
	SigOffset int64  `json:"sig_offset"`
	SigHash   string `json:"sig_hash"`
	// Sum is a SHA-256 self-digest over every other field. It catches a
	// corrupted sidecar at load time — in particular fields the log's
	// signature record cannot vouch for (Seq, the totals) — so the failure
	// is ErrCheckpointStale (cold-scan fallback) instead of a spurious
	// tampering verdict halfway into a resumed scan. Anyone can recompute
	// it, so it is no defence against an edit.
	Sum string `json:"sum"`
}

// digest computes the checkpoint's self-integrity digest: SHA-256 over the
// canonical JSON of every field except Sum itself (encoding/json writes
// struct fields in declaration order and map keys sorted, so the encoding
// is deterministic).
func (c *Checkpoint) digest() string {
	cp := *c
	cp.Sum = ""
	data, _ := json.Marshal(&cp)
	return hexDigest(data)
}

func hexChain(c [32]byte) string { return hex.EncodeToString(c[:]) }

func hexDigest(b []byte) string {
	d := sha256.Sum256(b)
	return hex.EncodeToString(d[:])
}

// point is the commit point the checkpoint records, its hex fields decoded.
func (c *Checkpoint) point() (*livePoint, error) {
	p := &livePoint{Offset: c.Offset, Seq: c.Seq, Counter: c.Counter, Batches: c.Batches, Tables: c.Tables, SigOffset: c.SigOffset}
	chain, err := hex.DecodeString(c.Chain)
	sum, err2 := hex.DecodeString(c.SigHash)
	if err != nil || err2 != nil || len(chain) != len(p.Chain) || len(sum) != len(p.SigHash) {
		return nil, fmt.Errorf("%w: bad chain head or signature record hash", ErrCheckpointStale)
	}
	copy(p.Chain[:], chain)
	copy(p.SigHash[:], sum)
	return p, nil
}

// state is the commit point the checkpoint claims, as a manifest attests one.
// LoadCheckpoint has checked that it decodes.
func (c *Checkpoint) state() ShardState {
	p, _ := c.point()
	return p.state()
}

// Save atomically persists the checkpoint (vfs.WriteFileAtomic).
func (c *Checkpoint) Save(path string) error {
	c.Sum = c.digest()
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return vfs.WriteFileAtomic(nil, path, append(data, '\n'), 0o644)
}

// LoadCheckpoint reads a checkpoint sidecar.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointStale, err)
	}
	if c.Version != checkpointVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCheckpointStale, c.Version)
	}
	if c.Sum != c.digest() {
		return nil, fmt.Errorf("%w: sidecar integrity digest mismatch", ErrCheckpointStale)
	}
	if _, err := c.point(); err != nil {
		return nil, err
	}
	return &c, nil
}

// matchFile authenticates the checkpoint against the open log file it is
// about to resume: the signature record read from SigOffset must prove its
// commit point (livePoint.proves), or the sidecar is ErrCheckpointStale and
// the caller falls back to the cold scan, which gives the true verdict. It
// binds neither Seq nor which shard the file is: on a set the manifests vouch
// for those (verifyShard). The file position is left unchanged for the caller
// to seek.
func (c *Checkpoint) matchFile(f *os.File, pub *ecdsa.PublicKey) error {
	payload, err := SigProof(f, c.SigOffset, c.Offset)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCheckpointStale, err)
	}
	if p, err := c.point(); err != nil || !p.proves(payload, pub) {
		return fmt.Errorf("%w: the signature record at the checkpoint does not prove it", ErrCheckpointStale)
	}
	return nil
}

// readRecordAt frames the one record of stream kind k that should occupy
// [off, end) of f, checking that it has the wanted type byte and ends exactly
// at end, and returns its payload.
func readRecordAt(f io.ReaderAt, k *streamKind, typ byte, off, end int64) ([]byte, error) {
	if off < int64(len(k.magic)) || off+5 > end {
		return nil, fmt.Errorf("audit: implausible %srecord offsets", k.name)
	}
	rr := recordReader{r: io.NewSectionReader(f, off, end-off), kind: k, off: off, size: int(min(end-off, blockSize))}
	rec, err := rr.next()
	if err != nil {
		return nil, fmt.Errorf("audit: record at %d: %v", off, err)
	}
	if rec.typ != typ {
		return nil, fmt.Errorf("audit: record at %d has type %q, want %q", off, rec.typ, typ)
	}
	if rec.end() != end {
		return nil, fmt.Errorf("audit: record at %d does not end at %d", off, end)
	}
	return rec.payload, nil
}

// SigProof reads the signature record with header at sigOff and end at
// offset from a log file and returns its raw payload — what a
// replication feed hands a resuming subscriber so the subscriber can
// authenticate its resume claim (LiveSet.RestartShard). The feed itself
// proves nothing: a wrong or forged payload simply fails the proof on the
// client.
func SigProof(f io.ReaderAt, sigOff, offset int64) ([]byte, error) {
	return readRecordAt(f, &logStream, recSig, sigOff, offset)
}

// ManifestRecordProof is SigProof's sidecar counterpart: the raw payload of
// the manifest record with header at recOff and end at offset, for the
// subscriber to authenticate (LiveSet.RestartManifests).
func ManifestRecordProof(f io.ReaderAt, recOff, offset int64) ([]byte, error) {
	return readRecordAt(f, &manifestStream, recManifest, recOff, offset)
}
