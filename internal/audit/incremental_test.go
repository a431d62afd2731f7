package audit

import (
	"errors"
	"testing"
	"time"
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
	if v.led.cur.counter != 50 || v.Batches() != 50 {
		t.Fatalf("counter %d, batches %d", v.led.cur.counter, v.Batches())
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
			v := NewIncrementalVerifier(opts, func(ci CommitInfo) error { reported++; return nil })
			var err error
			_, locates := signatureChecks(func() { err = v.Feed(buildImage(recs)) })
			var ve *VerifyError
			if !errors.As(err, &ve) || ve.Batch != c.failing || ve.Reason != "signature invalid" || locates != 1 {
				t.Fatalf("%v after %d locate passes, want signature record %d invalid after one", err, locates, c.failing)
			}
			if reported != c.reported {
				t.Fatalf("%d commits reported, want the %d before the invalid record", reported, c.reported)
			}
			if v.Feed(nil) != err {
				t.Fatal("a failed verifier must stay failed")
			}
			if _, last, _ := liveFeed(opts, buildImage(recs)); last != nil {
				t.Fatalf("a live set remembers %+v of a feed whose closing check failed", last)
			}
		})
	}
}

// liveFeed feeds img to the stream of a one-shard LiveSet and returns the set,
// the commit point it remembers as the shard's resume claim, and Feed's error.
func liveFeed(opts VerifyOptions, img []byte) (*LiveSet, *livePoint, error) {
	s := NewLiveSet("t", opts, 1, time.Hour)
	s.RestartManifests(nil)
	v, _ := s.RestartShard(0, nil)
	err := v.Feed(img)
	return s, s.shards[0].last, err
}

// TestIncrementalCheckpointIsFeedsLastCommit: the commit point a live set
// remembers of a feed is the feed's last — the one the closing check passed
// on — and entries trailing it do not leak into its totals. Its signature
// record proves it: a stream restarted with that record resumes from it, and
// with any other payload starts cold.
func TestIncrementalCheckpointIsFeedsLastCommit(t *testing.T) {
	key := testKey(t)
	signed := synthLog(t, key, 12, 3)
	img := appendUnsigned(t, signed, 12, 2)
	s, c, err := liveFeed(VerifyOptions{Pub: &key.PublicKey}, img)
	if err != nil {
		t.Fatal(err)
	}
	if c == nil || c.Offset != int64(len(signed)) || c.Batches != 4 || c.Seq != 12 || c.Tables["updates"] != 12 {
		t.Fatalf("remembered %+v, want the fourth commit point's with 12 entries", c)
	}
	if v := s.shards[0].v; v.Seq() != 14 {
		t.Fatalf("Seq() = %d, want 14 with the unsigned tail", v.Seq())
	}
	if _, resumed := s.RestartShard(0, signed[c.SigOffset+5+1:c.Offset]); resumed {
		t.Fatal("a stream resumed on a payload that is not the point's record")
	}
	s, c, _ = liveFeed(VerifyOptions{Pub: &key.PublicKey}, img)
	v, resumed := s.RestartShard(0, signed[c.SigOffset+5:c.Offset])
	if !resumed || v.Seq() != 12 || v.Offset() != c.Offset {
		t.Fatalf("restarted on the point's record: resumed %v at seq %d, offset %d; want it resumed at the point", resumed, v.Seq(), v.Offset())
	}
}
