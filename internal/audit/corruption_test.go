package audit

import (
	"fmt"
	"testing"
)

// The corruption matrix: for EVERY byte offset of a small batched log,
// flip the byte and truncate the file there, and check that
//
//  1. the reference verifier and the parallel driver at every worker count agree
//     exactly — same error string, or deeply equal results — and the
//     chunk-fed driver agrees as far as a strict driver without an
//     end-of-stream verdict can (driversAgree spells that out);
//  2. every rejection is classified (wraps ErrTampered or ErrBadCounter),
//     never an unwrapped I/O or parse error;
//  3. strict mode rejects every mutation — a verifier holding the
//     enclave's key and the counter quorum's stable value must notice any
//     single-byte change and any truncation;
//  4. a tolerant (crash-recovery) verdict never commits past the
//     corruption: CommittedBytes stays at or before the mutated offset.
//
// This is the exhaustive version of the hand-picked tamper cases in the
// unit tests: no byte of the wire format is outside some check's blast
// radius.

// mutate applies one matrix cell to a copy of img.
func mutate(img []byte, off int, flip bool) []byte {
	if flip {
		out := append([]byte(nil), img...)
		out[off] ^= 0xff
		return out
	}
	return append([]byte(nil), img[:off]...)
}

// checkAgree verifies one mutated image with the reference and every
// production driver and applies invariants (1) and (2); see driversAgree. It
// returns the shared verdict.
func checkAgree(t *testing.T, img []byte, opts VerifyOptions) (*refResult, error) {
	t.Helper()
	ref, _, err := driversAgree(t, img, opts, []int{1, 4})
	return ref, err
}

func TestCorruptionMatrixStrict(t *testing.T) {
	key := testKey(t)
	img := synthLog(t, key, 12, 3) // 4 signed batches, ends at a signature
	opts := VerifyOptions{
		Pub:       &key.PublicKey,
		Protector: fakeProtector(4), // the quorum's stable value for 4 batches
	}
	if _, err := checkAgree(t, img, opts); err != nil {
		t.Fatalf("uncorrupted log rejected: %v", err)
	}
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for off := 0; off < len(img); off += stride {
		for _, flip := range []bool{true, false} {
			name := fmt.Sprintf("truncate@%d", off)
			if flip {
				name = fmt.Sprintf("flip@%d", off)
			}
			if _, err := checkAgree(t, mutate(img, off, flip), opts); err == nil {
				t.Errorf("%s: strict verification accepted a corrupted log", name)
			}
		}
	}
}

func TestCorruptionMatrixTolerant(t *testing.T) {
	key := testKey(t)
	signed := synthLog(t, key, 12, 3)
	// A torn unsigned tail, the shape a mid-batch crash leaves: tolerant
	// verification of the unmutated image commits exactly the signed prefix.
	img := appendUnsigned(t, signed, 12, 2)
	opts := VerifyOptions{Pub: &key.PublicKey, RecoverTruncated: true}
	res, err := checkAgree(t, img, opts)
	if err != nil {
		t.Fatalf("torn tail rejected in tolerant mode: %v", err)
	}
	if res.CommittedBytes != int64(len(signed)) {
		t.Fatalf("committed %d bytes, want the signed prefix %d", res.CommittedBytes, len(signed))
	}
	wantCounter := res.Counter

	stride := 1
	if testing.Short() {
		stride = 7
	}
	for off := 0; off < len(img); off += stride {
		for _, flip := range []bool{true, false} {
			name := fmt.Sprintf("truncate@%d", off)
			if flip {
				name = fmt.Sprintf("flip@%d", off)
			}
			res, err := checkAgree(t, mutate(img, off, flip), opts)
			if err != nil {
				continue // classified rejection; agreement already checked
			}
			// A tolerant success must never commit at or past the mutation,
			// and can never claim a counter beyond the intact log's.
			if res.CommittedBytes > int64(off) {
				t.Errorf("%s: committed %d bytes past the corruption", name, res.CommittedBytes)
			}
			if res.Counter > wantCounter {
				t.Errorf("%s: counter %d exceeds the intact log's %d", name, res.Counter, wantCounter)
			}
		}
	}
}
