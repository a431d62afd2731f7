package simtime

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"libseal/internal/telemetry"
)

// medianWait times n waits of d on l, failing on one shorter than d.
func medianWait(t *testing.T, l *Layer, d time.Duration, n int) time.Duration {
	took := make([]time.Duration, n)
	for i := range took {
		start := time.Now()
		l.Sleep(d)
		took[i] = time.Since(start)
		if took[i] < d {
			t.Fatalf("wait of %v returned after %v", d, took[i])
		}
	}
	slices.Sort(took)
	return took[n/2]
}

// A wait takes the time it models: never less, and in the median within a
// small margin more — where a Go timer of 500 µs takes ≈1.07 ms on Linux.
// The median bound gets three rounds, so a round a loaded machine slowed
// does not fail it; a timer fails all three.
func TestWaitTakesTheModelledTime(t *testing.T) {
	l := NewLayer("test.accuracy")
	for _, d := range []time.Duration{100 * time.Microsecond, 500 * time.Microsecond, 3 * time.Millisecond} {
		for round := 0; ; round++ {
			med := medianWait(t, l, d, 21)
			if med <= d+400*time.Microsecond {
				break
			}
			if round == 2 {
				t.Fatalf("median wait of %v took %v", d, med)
			}
		}
	}
}

// Many concurrent waits with scattered deadlines each return at or after
// their own deadline, and promptly: one clock serves them all.
func TestConcurrentWaits(t *testing.T) {
	l := NewLayer("test.concurrent")
	rng := rand.New(rand.NewSource(1))
	const n = 64
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = time.Duration(rng.Intn(4000)) * time.Microsecond
	}
	var wg sync.WaitGroup
	late := make([]time.Duration, n)
	for i, d := range ds {
		wg.Add(1)
		go func(i int, d time.Duration) {
			defer wg.Done()
			deadline := time.Now().Add(d)
			l.SleepUntil(deadline)
			late[i] = time.Since(deadline)
		}(i, d)
	}
	wg.Wait()
	for i, lt := range late {
		if lt < 0 {
			t.Errorf("wait %d (%v) returned %v early", i, ds[i], -lt)
		}
	}
	slices.Sort(late)
	if med := late[n/2]; med > time.Millisecond {
		t.Errorf("median lateness %v over %d concurrent waits", med, n)
	}
	waitIdle(t)
}

// A deadline earlier than the one the clock sleeps towards wakes the clock.
func TestEarlierDeadlineWakesSleepingClock(t *testing.T) {
	l := NewLayer("test.kick")
	far := make(chan struct{})
	go func() {
		l.Sleep(200 * time.Millisecond)
		close(far)
	}()
	time.Sleep(5 * time.Millisecond) // let the clock start sleeping towards the far deadline
	start := time.Now()
	l.Sleep(time.Millisecond)
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Fatalf("1 ms wait behind a 200 ms one took %v", took)
	}
	<-far
}

// A cancelled wait returns the context's error at once, is not accounted,
// and does not keep the clock running until its deadline.
func TestWaitCancelled(t *testing.T) {
	l := NewLayer("test.cancel")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := l.Wait(ctx, 10*time.Second)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("cancelled wait took %v", took)
	}
	waitIdle(t)
	if m, _ := telemetry.Get("simtime.test.cancel.late"); m.Value != 0 {
		t.Fatalf("cancelled wait accounted: %+v", m)
	}

	done, cancelDone := context.WithCancel(context.Background())
	cancelDone()
	if err := l.Wait(done, time.Millisecond); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait on a done context: err = %v", err)
	}
	if err := l.Wait(context.Background(), -time.Second); err != nil {
		t.Fatalf("past deadline: err = %v", err)
	}
}

// Each layer accounts modelled against realised wait.
func TestLayerAccounts(t *testing.T) {
	l := NewLayer("test.account")
	read := func() (modelled, realised, waits int64) {
		m, _ := telemetry.Get("simtime.test.account.modelled")
		r, _ := telemetry.Get("simtime.test.account.realised")
		w, _ := telemetry.Get("simtime.test.account.late")
		return m.Value, r.Value, w.Value
	}
	m0, r0, w0 := read()
	const d, n = 300 * time.Microsecond, 10
	for i := 0; i < n; i++ {
		l.Sleep(d)
	}
	m1, r1, w1 := read()
	modelled, realised := m1-m0, r1-r0
	if w1-w0 != n {
		t.Fatalf("%d waits accounted, want %d", w1-w0, n)
	}
	if modelled <= 0 || modelled > int64(n*d) {
		t.Fatalf("modelled = %d ns for %d waits of %v", modelled, n, d)
	}
	if realised < modelled {
		t.Fatalf("realised %d ns < modelled %d ns", realised, modelled)
	}
}

// waitIdle fails the test unless the clock goroutine exits once nothing is
// pending.
func waitIdle(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		clk.mu.Lock()
		idle := !clk.running && len(clk.waiting) == 0
		clk.mu.Unlock()
		if idle {
			return
		}
	}
	t.Fatal("clock still running with nothing pending")
}

func TestBurn(t *testing.T) {
	start := time.Now()
	Burn(200 * time.Microsecond)
	if took := time.Since(start); took < 200*time.Microsecond {
		t.Fatalf("Burn(200µs) returned after %v", took)
	}
	Burn(-time.Second) // returns at once
}
