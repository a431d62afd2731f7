package audit

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

	"libseal/internal/enclave"
)

// Epoch manifests bind a sharded log's shards together. Each shard of a
// ShardedLog is an independent audit log — its own hash chain, file and
// rollback counter — so per-shard verification alone cannot tell whether the
// *set* of shard files is mutually consistent: a provider could roll a
// single shard file back to an earlier (internally valid, correctly signed)
// prefix and present the rest untouched. The manifest closes that hole: the
// enclave periodically signs one record binding every shard's durable
// (chain head, seq, counter) into a single digest, anchored by one
// increment of a dedicated manifest counter. A verifier that checks every
// manifest against the per-shard verdicts detects the rollback of any
// individual shard offline, from the files alone — no live counter quorum
// required — because the rolled-back shard no longer contains the commit
// point the manifest attests.
//
// Manifests live in a sidecar file (<name>.manifest) next to the shard
// files rather than inside shard 0's record stream: the shard files keep
// the exact wire format the golden vectors pin down, and each is verified
// by the per-file pipeline. Every disk set has the sidecar, one shard
// included: it is created with the set's creation manifest, so a directory
// of shard files without it is tampered with. The sidecar is append-only
// between compactions; a compaction rewrites the shard files and therefore
// rewrites the sidecar too, leaving exactly one fresh manifest that attests
// the compacted states.
//
// A sidecar's records are linked the way a shard file's signature records
// are: each manifest names the SHA-256 of the previous record's payload
// (Prev), zero for a sidecar's first, and its signature covers the link. The
// last record's signature therefore vouches for every record before it, and a
// verifier of a whole sidecar runs one ECDSA check (replayRecords).

// manifestMagic heads the manifest sidecar file (format 2: linked records).
// formerManifestMagics are the earlier formats', refused by name.
var (
	manifestMagic        = []byte("LIBSEALMAN2\n")
	formerManifestMagics = [][]byte{[]byte("LIBSEALMAN1\n")}
)

// recManifest is the manifest record type within the sidecar file.
const recManifest byte = 'M'

// manifestDomain separates manifest digests from every other message the
// enclave key signs (entry-batch signature records in particular).
const manifestDomain = "libseal-manifest-v2\x00"

// maxManifestShards bounds the shard count a parsed manifest may claim, so
// a hostile sidecar cannot force large allocations.
const maxManifestShards = 1 << 12

// ShardState is one shard's durable commit point as attested by a manifest.
type ShardState struct {
	// Chain is the shard's durable chain head.
	Chain [32]byte
	// Seq is the number of durable entries under that head.
	Seq uint64
	// Counter is the rollback-counter value of the shard's last durable
	// signature record.
	Counter uint64
}

// Manifest is one signed cross-shard epoch record.
type Manifest struct {
	// Epoch numbers manifests within one sidecar file, strictly increasing.
	Epoch uint64
	// Counter is the manifest counter value (counter name <name>-manifest)
	// that anchors this epoch: one ROTE increment covers all shards.
	Counter uint64
	// Prev is the SHA-256 of the payload of the sidecar's previous record,
	// zero for its first: the creation manifest, a compaction's or a
	// recovery's rewrite.
	Prev [32]byte
	// Shards holds every shard's attested state, indexed by shard number.
	Shards []ShardState
	// Sig is the enclave's ECDSA signature over manifestDigest.
	Sig enclave.Signature

	payload []byte // the record payload the manifest was parsed from or signed into
}

// digest is what the next record's Prev must name.
func (m *Manifest) digest() [32]byte { return sha256.Sum256(m.payload) }

// manifestDigest is the message a manifest's signature attests: a domain-
// separated hash binding the log-set name (so a manifest cannot be replayed
// across deployments), the epoch, the manifest counter, the link to the
// previous record and every shard state.
func manifestDigest(name string, m *Manifest) []byte {
	h := sha256.New()
	h.Write([]byte(manifestDomain))
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], uint64(len(name)))
	h.Write(u64[:])
	h.Write([]byte(name))
	binary.BigEndian.PutUint64(u64[:], m.Epoch)
	h.Write(u64[:])
	binary.BigEndian.PutUint64(u64[:], m.Counter)
	h.Write(u64[:])
	h.Write(m.Prev[:])
	binary.BigEndian.PutUint64(u64[:], uint64(len(m.Shards)))
	h.Write(u64[:])
	for _, s := range m.Shards {
		h.Write(s.Chain[:])
		binary.BigEndian.PutUint64(u64[:], s.Seq)
		h.Write(u64[:])
		binary.BigEndian.PutUint64(u64[:], s.Counter)
		h.Write(u64[:])
	}
	return h.Sum(nil)
}

// marshalManifest encodes a manifest record payload.
func marshalManifest(m *Manifest) []byte {
	var buf bytes.Buffer
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], m.Epoch)
	buf.Write(u64[:])
	binary.BigEndian.PutUint64(u64[:], m.Counter)
	buf.Write(u64[:])
	buf.Write(m.Prev[:])
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], uint32(len(m.Shards)))
	buf.Write(u32[:])
	for _, s := range m.Shards {
		buf.Write(s.Chain[:])
		binary.BigEndian.PutUint64(u64[:], s.Seq)
		buf.Write(u64[:])
		binary.BigEndian.PutUint64(u64[:], s.Counter)
		buf.Write(u64[:])
	}
	writeString(&buf, string(m.Sig.R))
	writeString(&buf, string(m.Sig.S))
	return buf.Bytes()
}

// parseManifest decodes a manifest record payload. Trailing bytes fail the
// parse for the same reason they fail parseSig: an inflated length field
// must not be able to swallow neighbouring records unnoticed.
func parseManifest(payload []byte) (*Manifest, error) {
	r := bytes.NewReader(payload)
	var u64 [8]byte
	m := &Manifest{payload: payload}
	if _, err := io.ReadFull(r, u64[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated manifest", ErrTampered)
	}
	m.Epoch = binary.BigEndian.Uint64(u64[:])
	if _, err := io.ReadFull(r, u64[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated manifest", ErrTampered)
	}
	m.Counter = binary.BigEndian.Uint64(u64[:])
	if _, err := io.ReadFull(r, m.Prev[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated manifest", ErrTampered)
	}
	var u32 [4]byte
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated manifest", ErrTampered)
	}
	n := binary.BigEndian.Uint32(u32[:])
	if n == 0 || n > maxManifestShards {
		return nil, fmt.Errorf("%w: manifest claims %d shards", ErrTampered, n)
	}
	m.Shards = make([]ShardState, n)
	for i := range m.Shards {
		s := &m.Shards[i]
		if _, err := io.ReadFull(r, s.Chain[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated manifest", ErrTampered)
		}
		if _, err := io.ReadFull(r, u64[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated manifest", ErrTampered)
		}
		s.Seq = binary.BigEndian.Uint64(u64[:])
		if _, err := io.ReadFull(r, u64[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated manifest", ErrTampered)
		}
		s.Counter = binary.BigEndian.Uint64(u64[:])
	}
	rb, rest, err := cutString(payload[len(payload)-r.Len():])
	if err != nil {
		return nil, fmt.Errorf("%w: truncated manifest signature", ErrTampered)
	}
	sb, rest, err := cutString(rest)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated manifest signature", ErrTampered)
	}
	m.Sig = enclave.Signature{R: rb, S: sb}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes after manifest", ErrTampered)
	}
	return m, nil
}

// validManifest is the ECDSA half of the sidecar's rule, validSig's
// counterpart: whether a manifest record's payload carries the enclave's
// signature over what it attests for the named set. Without a key there is
// nothing to check.
func validManifest(pub *ecdsa.PublicKey, name string, payload []byte) bool {
	if pub == nil {
		return true
	}
	mVerifySignatures.Inc()
	m, err := parseManifest(payload)
	return err == nil && enclave.VerifySignature(pub, manifestDigest(name, m), m.Sig)
}

// readManifests parses a manifest sidecar's bytes. In tolerant mode a torn
// tail — a truncated record left by a crash mid-append — ends the stream;
// strict mode fails it. A record that parses structurally but not
// semantically fails both modes: manifests are appended with one fsync each,
// so only the final record can legitimately be torn. The records are framed
// in place, out of a window that is all of raw and all of the stream, and the
// manifests alias it.
func readManifests(raw []byte, tolerant bool) ([]*Manifest, error) {
	rr := recordReader{kind: &manifestStream, buf: raw, eof: true}
	if err := rr.magic(); err != nil {
		return nil, err
	}
	var out []*Manifest
	for {
		rec, err := rr.next()
		if fe, framing := err.(*frameError); err == io.EOF || (framing && tolerant && fe.torn) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		m, err := parseManifest(rec.payload)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
}
