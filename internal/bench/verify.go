package bench

import (
	"context"
	"runtime"

	"libseal/internal/audit"
)

// VerifyLog is the post-run integrity check every bench and soak run ends
// with: it re-verifies the persisted audit log — a single file or a sharded
// set's directory — exactly as an auditing client would — strict mode, no
// truncation tolerance — using the parallel segmented pipeline with one
// worker per core. Returns the report so callers can read entry counts
// without materialising the entries.
func VerifyLog(path string, opts audit.VerifyOptions) (*audit.Report, error) {
	return audit.VerifyPath(context.Background(), path, audit.StreamOptions{
		VerifyOptions: opts,
		Workers:       runtime.GOMAXPROCS(0),
		// The callback keeps the pipeline in streaming mode: entry counts
		// come from TotalEntries/Tables, nothing is accumulated, and memory
		// stays bounded however large the bench log grew.
		OnSegment: func(audit.SegmentInfo) error { return nil },
	})
}
