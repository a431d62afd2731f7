package bench

import (
	"context"
	"fmt"
	"runtime"

	"libseal/internal/audit"
)

// Verify is the post-run integrity check every disk-mode run ends with. It
// closes the LibSEAL instance — only then is the log's entry count final —
// and re-verifies the persisted log set exactly as an auditing client would:
// strict mode, no truncation tolerance, counter freshness against the live
// counter group, with the parallel segmented pipeline at one worker per
// core. The set must hold every entry the log did.
func (s *Stack) Verify() (*audit.Report, error) {
	if err := s.Seal.Close(); err != nil {
		return nil, err
	}
	want := int(s.Seal.Log().Seq())
	rep, err := audit.VerifyPath(context.Background(), s.Dir, audit.StreamOptions{
		VerifyOptions: audit.VerifyOptions{Pub: s.Enclave.PublicKey(), Protector: s.Group},
		Workers:       runtime.GOMAXPROCS(0),
		// The callback keeps the pipeline in streaming mode: entry counts
		// come from TotalEntries/Tables, nothing is accumulated, and memory
		// stays bounded however large the bench log grew.
		OnSegment: func(audit.SegmentInfo) error { return nil },
	})
	if err != nil {
		return nil, fmt.Errorf("post-run verification: %w", err)
	}
	if rep.TotalEntries != want {
		return nil, fmt.Errorf("post-run verification: %d entries verified, the log held %d", rep.TotalEntries, want)
	}
	return rep, nil
}
