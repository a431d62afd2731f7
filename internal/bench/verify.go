package bench

import (
	"context"
	"crypto/ecdsa"
	"fmt"
	"runtime"

	"libseal/internal/audit"
)

// verifyLog is the post-run integrity check every audited run ends with: it
// re-verifies the persisted log set in dir exactly as an auditing client
// would — strict mode, no truncation tolerance, counter freshness against
// the live protector — using the parallel segmented pipeline with one worker
// per core, and checks that the set holds exactly want entries.
func verifyLog(dir string, pub *ecdsa.PublicKey, protector audit.RollbackProtector, want int) (*audit.Report, error) {
	rep, err := audit.VerifyPath(context.Background(), dir, audit.StreamOptions{
		VerifyOptions: audit.VerifyOptions{Pub: pub, Protector: protector},
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
