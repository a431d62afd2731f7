// Package mirror implements live audit-log replication: a feed on the
// server side streams committed log bytes and epoch manifests to
// subscribers, and a Mirror on the follower side verifies the stream
// continuously against nothing but the enclave's public key.
//
// Trust model. The feed is plumbing, not evidence: it runs outside the
// enclave and a compromised server controls every byte it sends. The mirror
// therefore judges what it holds of each file by the offline verifier's set
// rule (audit.LiveSet: hash chain, per-batch enclave signatures, manifest
// signatures and epochs, and every attested state a commit point of its
// shard), and once it holds every file whole its verdict is the offline one.
// State the mirror has already verified (each shard's last commit point and
// highest signed counter, the claims still waiting, the manifest epoch floor)
// can never be walked back by anything the feed sends later, nor by a restart
// of the mirror's own process: the LiveSet that holds it is the state file. What a lying feed CAN do is withhold
// bytes, which surfaces as lag, bounded by the mirror's staleness alarm
// (ErrMirrorLagging); it cannot make tampered bytes verify.
//
// Wire protocol. Frames are [1-byte type][4-byte big-endian length]
// [payload], the same framing discipline as the log file itself:
//
//	'H' hello    client→server JSON: subscriber name + per-shard resume
//	             claims (offset, sig record binding) + manifest resume claim
//	'A' ack      server→client JSON: per-claim verdicts with proof payloads
//	             (the raw signature / manifest record bytes the claim binds
//	             to, so the client authenticates resumption itself)
//	'D' data     [2-byte BE shard][raw log-file bytes]
//	'M' manifest [raw sidecar bytes]
//	'S' set      empty: a compaction replaced every file of the set (its
//	    restart  generation changed); every lane restarts at offset 0, and
//	             no byte of the new files precedes this frame
//	'T' tail     server→client JSON: committed sizes per shard + sidecar,
//	             sent whenever the subscriber is caught up — the mirror's
//	             lag reference, and the point at which it holds every file
//	             whole and judges the set as the offline verifier would
//
// Only committed (fsynced, signature-covered) bytes are ever streamed, so a
// clean subscriber never buffers past a torn tail.
package mirror

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Frame types.
const (
	frameHello      = 'H'
	frameAck        = 'A'
	frameData       = 'D'
	frameManifest   = 'M'
	frameSetRestart = 'S'
	frameTail       = 'T'
)

// maxFrameBytes bounds a single frame payload; data frames are chunked well
// below this.
const maxFrameBytes = 1 << 24

// writeFrame emits one frame.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFrameBytes {
		return fmt.Errorf("mirror: oversized frame (%d bytes)", len(payload))
	}
	hdr := [5]byte{typ}
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrameBytes {
		return 0, nil, fmt.Errorf("mirror: oversized frame (%d bytes)", n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// shardResume is one shard's resume claim in a hello: "I have verified this
// file up to Offset, and the signature record at SigOffset (whose payload
// hashes to SigHash) is my binding — prove it's still there."
type shardResume struct {
	Offset    int64  `json:"offset"`
	SigOffset int64  `json:"sig_offset"`
	SigHash   string `json:"sig_hash"`
}

// manifestResume is the sidecar's resume claim: offset plus the last parsed
// manifest record's binding.
type manifestResume struct {
	Offset  int64  `json:"offset"`
	RecOff  int64  `json:"rec_offset"`
	RecHash string `json:"rec_hash"`
}

// helloMsg opens a subscription. Shards may be empty (cold start); a
// present entry with Offset 0 is also a cold start for that shard.
type helloMsg struct {
	Name     string          `json:"name"`
	Shards   []shardResume   `json:"shards,omitempty"`
	Manifest *manifestResume `json:"manifest,omitempty"`
}

// shardAck answers one shard's resume claim. Ok means the server found the
// claimed record bytes and Proof carries the record payload for the client
// to authenticate (audit.LiveSet.RestartShard); !Ok means the client must reset
// that shard to offset 0.
type shardAck struct {
	Ok    bool   `json:"ok"`
	Proof []byte `json:"proof,omitempty"`
}

// ackMsg answers a hello. ShardsTotal is the authoritative shard count of
// the set being streamed.
type ackMsg struct {
	Name        string     `json:"name"`
	ShardsTotal int        `json:"shards_total"`
	Shards      []shardAck `json:"shards,omitempty"`
	ManifestOk  bool       `json:"manifest_ok"`
	// ManifestProof is the raw payload of the manifest record the client's
	// resume claim binds to, present when ManifestOk.
	ManifestProof []byte `json:"manifest_proof,omitempty"`
	// Manifested reports that the set has its manifest sidecar. Every
	// persisted set has one, so a mirror treats false as a violation.
	Manifested bool `json:"manifested"`
}

// tailMsg reports the server's committed sizes so the subscriber can place
// itself: verified bytes vs Shards[k] is the shard's lag, and "caught up
// with an unmet rollback obligation" is the detection trigger.
type tailMsg struct {
	Shards   []int64 `json:"shards"`
	Manifest int64   `json:"manifest"`
}

func marshalJSONFrame(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // all frame types marshal cleanly by construction
	}
	return b
}

// unmarshalStrict decodes a JSON frame payload.
func unmarshalStrict(b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("mirror: bad frame payload: %v", err)
	}
	return nil
}

// dataPayload frames a shard chunk: [2-byte shard][bytes].
func dataPayload(shard int, chunk []byte) []byte {
	p := make([]byte, 2+len(chunk))
	binary.BigEndian.PutUint16(p, uint16(shard))
	copy(p[2:], chunk)
	return p
}
