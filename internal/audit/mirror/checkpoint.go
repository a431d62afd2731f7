package mirror

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"libseal/internal/audit"
	"libseal/internal/vfs"
)

// The mirror's own resume state: one JSON sidecar bundling each shard's
// verified-prefix checkpoint (the same audit.Checkpoint shape the offline
// resumable verifier persists), the manifest stream position with its
// record binding, and the continuity memory — the highest signed counter
// ever verified per shard and the manifest epoch/counter floor. The
// sidecar is plain unauthenticated JSON, exactly like the offline sidecar,
// and it is trusted exactly as little: every shard checkpoint is re-proved
// against a fetched signature record (Checkpoint.MatchProof), the manifest
// position against a fetched manifest record (MatchManifestProof), before
// a resumed session adopts anything. The continuity memory is the one part
// resume DOES trust — deliberately: it only ever makes the mirror
// stricter (a forged-down floor merely weakens detection back to
// cold-start level, it cannot make tampered bytes verify), and it is
// covered by the self-digest so rot degrades to a cold start.

const mirrorCheckpointVersion = 1

// manifestState is the persisted manifest-stream position and floor.
type manifestState struct {
	Offset  int64  `json:"offset"`
	RecOff  int64  `json:"rec_offset"`
	RecHash string `json:"rec_hash"`
	Epoch   uint64 `json:"epoch"`
	Counter uint64 `json:"counter"`
	Count   int    `json:"count"`
}

// state is the mirror's persisted sidecar.
type state struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	// Shards holds each shard's verified-prefix checkpoint; a nil entry is
	// a shard with no commit point verified yet.
	Shards []*audit.Checkpoint `json:"shards"`
	// MaxCounter is each shard's continuity floor: the highest rollback
	// counter the mirror has ever verified in that shard's signature
	// records. A reconnected stream must climb back past it (see
	// needCounter in mirror.go) or the shard is rolled back.
	MaxCounter []uint64 `json:"max_counter"`
	// Manifest is the sidecar stream state; nil before any manifest.
	Manifest *manifestState `json:"manifest,omitempty"`
	// Sum is a self-digest over every other field, as in audit.Checkpoint.
	Sum string `json:"sum"`
}

func (st *state) digest() string {
	cp := *st
	cp.Sum = ""
	data, _ := json.Marshal(&cp)
	d := sha256.Sum256(data)
	return hex.EncodeToString(d[:])
}

// save persists the sidecar atomically (vfs.WriteFileAtomic) — the same
// crash discipline as the offline checkpoint sidecar.
func (st *state) save(path string) error {
	st.Sum = st.digest()
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return vfs.WriteFileAtomic(nil, path, append(data, '\n'), 0o644)
}

// loadState reads a mirror sidecar; a missing file is (nil, nil) — a cold
// start, not an error. A corrupt sidecar is an error so the caller can
// choose to start cold explicitly rather than silently losing the floor.
func loadState(path, name string) (*state, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var st state
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("mirror: corrupt checkpoint %s: %v", path, err)
	}
	if st.Version != mirrorCheckpointVersion {
		return nil, fmt.Errorf("mirror: checkpoint %s: unsupported version %d", path, st.Version)
	}
	if st.Sum != st.digest() {
		return nil, fmt.Errorf("mirror: checkpoint %s: integrity digest mismatch", path)
	}
	if st.Name != name {
		return nil, fmt.Errorf("mirror: checkpoint %s is for log set %q, not %q", path, st.Name, name)
	}
	return &st, nil
}
