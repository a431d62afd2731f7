package lthread

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSubmitRunsWork(t *testing.T) {
	s := NewScheduler(2)
	defer s.Shutdown()
	done := make(chan struct{})
	if err := s.Submit(func(*Task) { close(done) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("work never ran")
	}
}

func TestMutualExclusionWithinScheduler(t *testing.T) {
	s := NewScheduler(8)
	defer s.Shutdown()
	var running atomic.Int32
	var maxSeen atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		if err := s.Submit(func(task *Task) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				n := running.Add(1)
				for {
					m := maxSeen.Load()
					if n <= m || maxSeen.CompareAndSwap(m, n) {
						break
					}
				}
				running.Add(-1)
				task.Unpark()
				task.Park() // hands the thread over and takes it back
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := maxSeen.Load(); got != 1 {
		t.Fatalf("max concurrent tasks on one scheduler = %d, want 1", got)
	}
}

func TestParkReleasesThread(t *testing.T) {
	s := NewScheduler(2)
	defer s.Shutdown()
	var parked *Task
	parkedCh := make(chan struct{})
	siblingRan := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	_ = s.Submit(func(task *Task) {
		defer wg.Done()
		parked = task
		close(parkedCh)
		task.Park() // must release the thread so the sibling can run
	})
	<-parkedCh
	_ = s.Submit(func(task *Task) {
		defer wg.Done()
		close(siblingRan)
	})
	select {
	case <-siblingRan:
	case <-time.After(time.Second):
		t.Fatal("sibling task starved while another task was parked")
	}
	parked.Unpark()
	wg.Wait()
}

func TestUnparkBeforeParkNotLost(t *testing.T) {
	s := NewScheduler(1)
	defer s.Shutdown()
	done := make(chan struct{})
	_ = s.Submit(func(task *Task) {
		task.Unpark() // wakeup arrives first
		task.Park()   // must not block
		close(done)
	})
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Park lost a prior Unpark")
	}
}

func TestSubmitAfterShutdown(t *testing.T) {
	s := NewScheduler(1)
	s.Shutdown()
	if err := s.Submit(func(*Task) {}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Submit after shutdown = %v, want ErrShutdown", err)
	}
}

func TestShutdownWaitsForWork(t *testing.T) {
	s := NewScheduler(4)
	var completed atomic.Int32
	for i := 0; i < 4; i++ {
		_ = s.Submit(func(task *Task) {
			task.Unpark()
			task.Park()
			completed.Add(1)
		})
	}
	s.Shutdown()
	if got := completed.Load(); got != 4 {
		t.Fatalf("completed = %d, want 4 after Shutdown", got)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	s := NewScheduler(2)
	s.Shutdown()
	s.Shutdown() // must not panic or deadlock
}

func TestFreeTasksAccounting(t *testing.T) {
	s := NewScheduler(3)
	defer s.Shutdown()
	if got := len(s.free); got != 3 {
		t.Fatalf("free tasks = %d, want 3", got)
	}
	block := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	_ = s.Submit(func(task *Task) {
		defer wg.Done()
		task.sched.token <- struct{}{} // let the test run while this task holds its slot
		<-block
		<-task.sched.token
	})
	deadline := time.After(time.Second)
	for len(s.free) != 2 {
		select {
		case <-deadline:
			t.Fatalf("free tasks = %d, want 2", len(s.free))
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(block)
	wg.Wait()
}

func TestManyTasksAllComplete(t *testing.T) {
	const n = 500
	s := NewScheduler(16)
	defer s.Shutdown()
	var completed atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		if err := s.Submit(func(task *Task) {
			defer wg.Done()
			task.Unpark()
			task.Park()
			completed.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := completed.Load(); got != n {
		t.Fatalf("completed = %d, want %d", got, n)
	}
}

func TestSchedulerCountProperty(t *testing.T) {
	// Property: for any (tasks, jobs) the scheduler completes exactly jobs
	// units of work and ends with all tasks free.
	f := func(tasks uint8, jobs uint8) bool {
		nt := int(tasks%8) + 1
		nj := int(jobs % 64)
		s := NewScheduler(nt)
		var completed atomic.Int32
		var wg sync.WaitGroup
		for i := 0; i < nj; i++ {
			wg.Add(1)
			if err := s.Submit(func(task *Task) {
				defer wg.Done()
				completed.Add(1)
			}); err != nil {
				return false
			}
		}
		wg.Wait()
		s.Shutdown()
		return completed.Load() == int32(nj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
