//go:build !race

package testutil

// RaceEnabled reports whether the race detector is built in.
const RaceEnabled = false
