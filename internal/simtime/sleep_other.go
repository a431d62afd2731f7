//go:build !linux

package simtime

import "time"

// osSleep is Linux-only: elsewhere the clock goes from its runtime timer
// straight to yielding.
var osSleep func(time.Duration)
