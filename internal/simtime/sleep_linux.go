package simtime

import (
	"syscall"
	"time"
)

// osSleep blocks the calling thread in the kernel for d. The runtime's
// timers wake through the netpoller, which on Linux waits in whole
// milliseconds; nanosleep is late only by the kernel's timer slack. It
// holds an OS thread while it sleeps, which only the clock goroutine does,
// one slice at a time.
var osSleep = func(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) // an early return (EINTR) only shortens the slice
}
