package audit

import (
	"errors"
	"testing"
)

// TestIncrementalFeedChecksOnce: the commits one Feed completes are reported
// after one ECDSA check, on the feed's last signature record; when that
// check fails, the locate pass reports those before the first invalid record
// — each then checked in its own right — and none at or past it.
func TestIncrementalFeedChecksOnce(t *testing.T) {
	key := testKey(t)
	img := synthLog(t, key, 50, 1) // 50 commits
	opts := VerifyOptions{Pub: &key.PublicKey}

	var got []CommitInfo
	v := NewIncrementalVerifier(opts, func(ci CommitInfo) error { got = append(got, ci); return nil })
	var err error
	checks, locates := signatureChecks(func() { err = v.Feed(img) })
	if err != nil || len(got) != 50 || checks != 1 || locates != 0 {
		t.Fatalf("%v: %d commits reported after %d ECDSA checks and %d locate passes; want 50, 1, 0", err, len(got), checks, locates)
	}
	for i, ci := range got {
		if ci.Seq != uint64(i+1) || ci.Entries != 1 {
			t.Fatalf("commit %d reported out of order: %+v", i, ci)
		}
	}
	if v.MaxCounter() != 50 || v.Batches() != 50 {
		t.Fatalf("max counter %d, batches %d", v.MaxCounter(), v.Batches())
	}

	for _, c := range []struct {
		name     string
		bad      []int // signature records whose S is flipped
		reported int
		failing  int
	}{
		{"last invalid", []int{49}, 49, 49},
		{"first invalid", []int{0}, 0, 0},
		{"two invalid", []int{20, 49}, 20, 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			recs := imageRecords(t, img)
			sigs := sigRecords(recs)
			for _, k := range c.bad {
				p := recs[sigs[k]].payload
				p[sigSAt(p)] ^= 0xff
			}
			reported := 0
			var v *IncrementalVerifier
			v = NewIncrementalVerifier(opts, func(ci CommitInfo) error {
				reported++
				if v.Checkpoint(0) != nil {
					t.Error("a commit point is checkpointable inside a feed whose closing check failed")
				}
				return nil
			})
			var err error
			_, locates := signatureChecks(func() { err = v.Feed(buildImage(recs)) })
			var ve *VerifyError
			if !errors.As(err, &ve) || ve.Batch != c.failing || ve.Reason != "signature invalid" || locates != 1 {
				t.Fatalf("%v after %d locate passes, want signature record %d invalid after one", err, locates, c.failing)
			}
			if reported != c.reported {
				t.Fatalf("%d commits reported, want the %d before the invalid record", reported, c.reported)
			}
			if v.Checkpoint(0) != nil || v.Feed(nil) != err {
				t.Fatal("a failed verifier must stay failed and uncheckpointable")
			}
		})
	}
}

// TestIncrementalCheckpointIsFeedsLastCommit: whatever commit is being
// reported, the checkpointable one is the feed's last — the one the closing
// check passed on — and entries trailing it do not leak into its totals.
func TestIncrementalCheckpointIsFeedsLastCommit(t *testing.T) {
	key := testKey(t)
	signed := synthLog(t, key, 12, 3)
	img := appendUnsigned(t, signed, 12, 2)
	var seen []*Checkpoint
	var v *IncrementalVerifier
	v = NewIncrementalVerifier(VerifyOptions{Pub: &key.PublicKey}, func(CommitInfo) error {
		seen = append(seen, v.Checkpoint(0))
		return nil
	})
	if err := v.Feed(img); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("%d commits reported, want 4", len(seen))
	}
	for i, c := range append(seen, v.Checkpoint(0)) {
		if c == nil || c.Offset != int64(len(signed)) || c.Batches != 4 || c.Seq != 12 || c.Tables["updates"] != 12 {
			t.Fatalf("checkpoint %d: %+v, want the fourth commit point's with 12 entries", i, c)
		}
		if err := c.MatchProof(signed[c.SigOffset+5:c.Offset], &key.PublicKey); err != nil {
			t.Fatalf("checkpoint %d does not bind to its record: %v", i, err)
		}
	}
	if v.Seq() != 14 {
		t.Fatalf("Seq() = %d, want 14 with the unsigned tail", v.Seq())
	}
}
