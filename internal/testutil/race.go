//go:build race

package testutil

// RaceEnabled reports whether the race detector is built in. Under it
// sync.Pool drops a random quarter of what is put back, so a gate on the
// bytes a pooled path allocates reads that share of its buffers again.
const RaceEnabled = true
