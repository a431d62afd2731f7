package audit

import (
	"context"
	"crypto/ecdsa"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writeLogWithCheckpoint builds a synthetic log and a sidecar taken at its
// final commit point (checkpoint every segment ⇒ the last write covers the
// whole log).
func writeLogWithCheckpoint(t *testing.T, n, batchMax int) (logPath, ckptPath string, key *ecdsa.PrivateKey, ck *Checkpoint) {
	t.Helper()
	key = testKey(t)
	dir := t.TempDir()
	logPath = filepath.Join(dir, "log.lseal")
	ckptPath = logPath + ".ckpt" // streamFile's sidecar
	if _, err := WriteSyntheticLogFile(logPath, key, n, batchMax); err != nil {
		t.Fatal(err)
	}
	copts := StreamOptions{
		VerifyOptions: VerifyOptions{Pub: &key.PublicKey},
		Workers:       2,
		Checkpoint:    &CheckpointConfig{EverySegments: 1},
	}
	if _, err := streamFile(context.Background(), logPath, copts, nil); err != nil {
		t.Fatal(err)
	}
	var err error
	ck, err = LoadCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	return logPath, ckptPath, key, ck
}

// TestCheckpointForgedCounterRejected locks the rollback defence: a sidecar
// whose counter claims the current group value over an older log copy must
// be refused (the log's own signed record attests a smaller counter), so
// the caller's cold-scan fallback reaches the true ErrBadCounter verdict
// instead of resume reporting OK.
func TestCheckpointForgedCounterRejected(t *testing.T) {
	logPath, _, key, ck := writeLogWithCheckpoint(t, 60, 4)

	// The rollback group has moved past this log copy: a cold scan fails
	// freshness.
	stale := ck.Counter + 7
	vopts := VerifyOptions{Pub: &key.PublicKey, Protector: fakeProtector(stale)}
	if _, err := streamFile(context.Background(), logPath, StreamOptions{VerifyOptions: vopts, Workers: 2}, nil); !errors.Is(err, ErrBadCounter) {
		t.Fatalf("cold err = %v, want ErrBadCounter", err)
	}

	// Attacker forges the sidecar counter to the current group value so
	// the resumed scan's final freshness check would pass.
	forged := *ck
	forged.Counter = stale
	ropts := StreamOptions{VerifyOptions: vopts, Workers: 2}
	if _, err := streamFile(context.Background(), logPath, ropts, &forged); !errors.Is(err, ErrCheckpointStale) {
		t.Fatalf("resume err = %v, want ErrCheckpointStale", err)
	}
}

// TestCheckpointWrongChainRejected: a sidecar whose chain head disagrees
// with the signed record must fail ErrCheckpointStale (cold-scan fallback),
// not poison the resumed scan into a bogus ErrTampered.
func TestCheckpointWrongChainRejected(t *testing.T) {
	logPath, _, key, ck := writeLogWithCheckpoint(t, 40, 4)
	forged := *ck
	b := []byte(forged.Chain)
	if b[0] == '0' {
		b[0] = '1'
	} else {
		b[0] = '0'
	}
	forged.Chain = string(b)
	ropts := StreamOptions{VerifyOptions: VerifyOptions{Pub: &key.PublicKey}, Workers: 2}
	if _, err := streamFile(context.Background(), logPath, ropts, &forged); !errors.Is(err, ErrCheckpointStale) {
		t.Fatalf("resume err = %v, want ErrCheckpointStale", err)
	}
}

// TestCheckpointBindingSigForged: the binding record's ECDSA signature is
// verified at resume, so matching SigHash against a tampered record is not
// enough to adopt its state.
func TestCheckpointBindingSigForged(t *testing.T) {
	logPath, _, key, ck := writeLogWithCheckpoint(t, 40, 4)
	img, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the last byte of the binding record's payload — inside the
	// ECDSA S value (payload = 32B chain + 8B counter + R + S) — and
	// recompute the sidecar's SigHash over the tampered bytes so the
	// structural binding still matches.
	img[ck.Offset-1] ^= 0x01
	if err := os.WriteFile(logPath, img, 0o644); err != nil {
		t.Fatal(err)
	}
	forged := *ck
	forged.SigHash = hexDigest(img[ck.SigOffset+5 : ck.Offset])
	ropts := StreamOptions{VerifyOptions: VerifyOptions{Pub: &key.PublicKey}, Workers: 2}
	if _, err := streamFile(context.Background(), logPath, ropts, &forged); !errors.Is(err, ErrCheckpointStale) {
		t.Fatalf("resume err = %v, want ErrCheckpointStale", err)
	}
}

// TestCheckpointSidecarRotRejected: corruption of a field the signature
// record cannot vouch for (Seq) trips the sidecar's self-digest at load
// time, so the failure is ErrCheckpointStale — cold-scan fallback — rather
// than a mid-scan "sequence gap" tampering verdict on an intact log.
func TestCheckpointSidecarRotRejected(t *testing.T) {
	_, ckptPath, _, _ := writeLogWithCheckpoint(t, 40, 4)
	data, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["seq"] = raw["seq"].(float64) + 1
	rotted, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckptPath, rotted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(ckptPath); !errors.Is(err, ErrCheckpointStale) {
		t.Fatalf("load err = %v, want ErrCheckpointStale", err)
	}
}
