// Package simtime is the simulator's time: every latency the model charges
// waits here, and every CPU cost it charges burns here.
//
// A wait is modelled latency — a counter-group round trip, a simulated
// link's propagation and serialisation delay, an injected stall. A Go timer
// cannot model one below a millisecond: on Linux the runtime's netpoller
// sleeps in whole milliseconds, so a 500 µs
// timer fires after ≈1.07 ms (golang/go#44343): a 500 µs round trip on a
// timer would take twice what the deployment says. A wait here is a deadline. One
// clock goroutine sleeps to the earliest pending deadline minus a slack it
// has seen its sleeps overshoot by — on a runtime timer while the deadline
// is far, then, on Linux, in the kernel, whose sleeps are late by tens of
// microseconds rather than a millisecond — then yields the processor
// (runtime.Gosched) until the deadline and wakes every waiter that is due.
// Waiters block on a channel, so any number of concurrent waits cost one
// clock goroutine, and it runs only while a wait is pending.
//
// Each Layer keeps its own account of modelled against realised wait in the
// telemetry registry, so a gap between what the model says and what a run
// took is read off /metrics rather than inferred.
//
// Product timers — group-commit batch fill, admission timeout, retry
// backoff, mirror grace — are the product's own behaviour, not the model,
// and do not use this package.
package simtime

import (
	"container/heap"
	"context"
	"runtime"
	"sync"
	"time"

	"libseal/internal/telemetry"
)

// A Layer is one kind of modelled latency with its own account:
// simtime.<name>.modelled and simtime.<name>.realised sum the waits asked
// for and the waits taken (ns), and simtime.<name>.late is the distribution
// of how late each wait returned.
type Layer struct {
	modelled, realised *telemetry.Counter
	late               *telemetry.Histogram
}

// NewLayer registers (or retrieves) the named layer's metrics.
func NewLayer(name string) *Layer {
	return &Layer{
		modelled: telemetry.NewCounter("simtime."+name+".modelled", "ns"),
		realised: telemetry.NewCounter("simtime."+name+".realised", "ns"),
		late:     telemetry.NewHistogram("simtime."+name+".late", "ns"),
	}
}

// Sleep waits d.
func (l *Layer) Sleep(d time.Duration) { l.SleepUntil(time.Now().Add(d)) }

// SleepUntil waits until deadline; a deadline already past returns at once.
func (l *Layer) SleepUntil(deadline time.Time) { l.WaitUntil(context.Background(), deadline) }

// Wait waits d, or until ctx is done, when it returns ctx.Err().
func (l *Layer) Wait(ctx context.Context, d time.Duration) error {
	return l.WaitUntil(ctx, time.Now().Add(d))
}

// WaitUntil waits until deadline, or until ctx is done, when it returns
// ctx.Err(). Only completed waits are accounted.
func (l *Layer) WaitUntil(ctx context.Context, deadline time.Time) error {
	start := time.Now()
	modelled := deadline.Sub(start)
	if modelled <= 0 {
		return ctx.Err()
	}
	w := clk.add(deadline)
	select {
	case <-w.done:
	case <-ctx.Done():
		clk.remove(w)
		return ctx.Err()
	}
	realised := time.Since(start)
	l.modelled.Add(int64(modelled))
	l.realised.Add(int64(realised))
	l.late.Observe(realised - modelled)
	return nil
}

// Burn spends d of CPU: modelled work (an enclave transition, a service's
// request processing) occupies a core, so it busy-spins rather than waits.
func Burn(d time.Duration) {
	if d <= 0 {
		return
	}
	start := time.Now()
	for time.Since(start) < d {
		// time.Since costs ~20-30 ns, fine at microsecond granularity.
	}
}

// The clock's first estimates of how late each kind of sleep returns, and
// their ceilings: a runtime timer rounds up to the netpoller's millisecond
// on Linux, and a kernel sleep adds the kernel's default 50 µs timer slack.
// A ceiling keeps the slack below the waits the model asks for (500 µs for
// the benchmark's counter round trip), so the sleep keeps running and an
// estimate inflated by a GC pause or a descheduled thread comes back down.
const (
	initialTimerLate = time.Millisecond
	maxTimerLate     = 2 * time.Millisecond
	initialOSLate    = 50 * time.Microsecond
	maxOSLate        = 200 * time.Microsecond
)

// osSlice bounds one kernel sleep. The clock cannot be woken out of one, so
// a deadline that arrives earlier than the one it sleeps towards is at most
// this (plus the kernel's slack) late.
const osSlice = 200 * time.Microsecond

// clk is the process's one clock. Like the runtime's own timer heap it is a
// process-wide service: sharing it is what keeps concurrent waits to one
// sleeping, then yielding, goroutine.
var clk = clock{
	kick:      make(chan struct{}, 1),
	timerLate: lateness{initialTimerLate, maxTimerLate},
	osLate:    lateness{initialOSLate, maxOSLate},
}

type waiter struct {
	at    time.Time
	done  chan struct{}
	index int // position in the clock's heap; -1 once woken or removed
}

// clock wakes waiters at their deadlines. Towards the earliest pending one
// it sleeps on a runtime timer while that deadline is further away than
// the timer's slack, then (where osSleep exists) in the kernel in slices
// while it is further than the kernel sleep's slack, then yields the
// processor until it is due.
type clock struct {
	mu      sync.Mutex
	waiting waitHeap
	running bool // a run goroutine owns the clock
	// kick tells a run goroutine sleeping on its timer that the head of
	// the heap changed. One pending kick is enough: the goroutine re-reads
	// the heap on waking.
	kick chan struct{}
	// The two sleeps' observed lateness, read and written only by the run
	// goroutine (one at a time: running hands the clock over under mu).
	timerLate, osLate lateness
}

// lateness tracks how late one kind of sleep returns, as a high quantile:
// a late return pulls the estimate a quarter of the way up, a punctual one
// a sixteenth of the way down. A sleep aims its slack early.
type lateness struct {
	est, ceiling time.Duration
}

func (l *lateness) slack() time.Duration { return l.est + l.est/4 }

func (l *lateness) observe(late time.Duration) {
	late = max(late, 0) // an interrupted kernel sleep returns early
	if late > l.est {
		l.est = min(l.est+(late-l.est)/4, l.ceiling)
	} else {
		l.est -= (l.est - late) / 16
	}
}

func (c *clock) add(at time.Time) *waiter {
	w := &waiter{at: at, done: make(chan struct{})}
	c.mu.Lock()
	heap.Push(&c.waiting, w)
	if !c.running {
		c.running = true
		go c.run()
	} else if w.index == 0 {
		c.wake()
	}
	c.mu.Unlock()
	return w
}

// remove drops a waiter whose caller gave up, so an abandoned deadline does
// not keep the clock running.
func (c *clock) remove(w *waiter) {
	c.mu.Lock()
	if i := w.index; i >= 0 {
		heap.Remove(&c.waiting, i)
		if i == 0 {
			c.wake()
		}
	}
	c.mu.Unlock()
}

// wake makes a run goroutine sleeping towards the old head re-read the heap.
func (c *clock) wake() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// run is the clock goroutine. It exits once no wait is pending; add starts
// the next one.
func (c *clock) run() {
	for {
		c.mu.Lock()
		now := time.Now()
		for len(c.waiting) > 0 && !c.waiting[0].at.After(now) {
			close(heap.Pop(&c.waiting).(*waiter).done)
		}
		if len(c.waiting) == 0 {
			c.running = false
			c.mu.Unlock()
			return
		}
		left := c.waiting[0].at.Sub(now)
		c.mu.Unlock()
		switch {
		case left > c.timerLate.slack():
			d := left - c.timerLate.slack()
			t := time.NewTimer(d)
			select {
			case <-t.C:
				c.timerLate.observe(time.Since(now) - d)
			case <-c.kick:
				t.Stop()
			}
		case osSleep != nil && left > c.osLate.slack():
			d := min(left-c.osLate.slack(), osSlice)
			osSleep(d)
			c.osLate.observe(time.Since(now) - d)
		default:
			// Let the goroutines just woken, and any other work, run
			// before looking at the clock again.
			runtime.Gosched()
		}
	}
}

// waitHeap orders waiters by deadline (container/heap).
type waitHeap []*waiter

func (h waitHeap) Len() int           { return len(h) }
func (h waitHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h waitHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}

func (h *waitHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}

func (h *waitHeap) Pop() any {
	old := *h
	w := old[len(old)-1]
	old[len(old)-1] = nil
	w.index = -1
	*h = old[:len(old)-1]
	return w
}
