package mirror

import (
	"testing"
	"time"
)

// Subscribers reports the number of currently attached subscribers.
func (f *Feed) Subscribers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}

// setWriteTimeout shortens the feed's write deadline for one test.
func setWriteTimeout(t testing.TB, d time.Duration) {
	old := writeTimeout
	writeTimeout = d
	t.Cleanup(func() { writeTimeout = old })
}

// frame is one frame as a test feed or the set-rule table delivers it.
type frame struct {
	typ     byte
	payload []byte
}
