// Package lthread implements cooperative user-level threading in the style
// of the lthread library used by LibSEAL (§4.3). A Scheduler models one
// enclave (SGX) thread multiplexing T lthread tasks: at any instant at most
// one task per scheduler executes, and a task that Parks releases the
// thread so its siblings can run — which is exactly what lets LibSEAL
// overlap an async-ocall's outside execution with other in-enclave work.
package lthread

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrShutdown is returned by Submit after the scheduler has been shut down.
var ErrShutdown = errors.New("lthread: scheduler shut down")

// Work is a unit of execution assigned to a task. It receives the Task so it
// can Park.
type Work func(*Task)

// Scheduler multiplexes a fixed set of tasks onto one logical thread.
type Scheduler struct {
	token    chan struct{} // the logical CPU: held by whichever task runs
	free     chan *Task
	tasks    []*Task
	wg       sync.WaitGroup
	shutdown atomic.Bool
}

// Task is one cooperative thread of execution.
type Task struct {
	sched *Scheduler
	work  chan Work
	wake  chan struct{}
}

// NewScheduler creates a scheduler with numTasks tasks, all idle.
func NewScheduler(numTasks int) *Scheduler {
	if numTasks < 1 {
		numTasks = 1
	}
	s := &Scheduler{
		token: make(chan struct{}, 1),
		free:  make(chan *Task, numTasks),
	}
	s.token <- struct{}{}
	for i := 0; i < numTasks; i++ {
		t := &Task{
			sched: s,
			work:  make(chan Work),
			wake:  make(chan struct{}, 1),
		}
		s.tasks = append(s.tasks, t)
		s.free <- t
		s.wg.Add(1)
		go t.loop()
	}
	return s
}

func (t *Task) loop() {
	defer t.sched.wg.Done()
	for w := range t.work {
		<-t.sched.token
		w(t)
		t.sched.token <- struct{}{}
		t.sched.free <- t
	}
}

// Submit hands work to a task, blocking until one is free.
func (s *Scheduler) Submit(w Work) error {
	if s.shutdown.Load() {
		return ErrShutdown
	}
	t := <-s.free
	if s.shutdown.Load() {
		s.free <- t
		return ErrShutdown
	}
	t.work <- w
	return nil
}

// Shutdown stops accepting work and waits for in-flight tasks to finish.
func (s *Scheduler) Shutdown() {
	if s.shutdown.Swap(true) {
		return
	}
	// Drain every task back to the free list, then close its work channel.
	for range s.tasks {
		t := <-s.free
		close(t.work)
	}
	s.wg.Wait()
}

// Park releases the logical thread and blocks until Unpark is called. A
// wakeup posted before Park is not lost. This is how a task waits for the
// result of an asynchronous ocall while siblings keep the enclave thread
// busy.
func (t *Task) Park() {
	t.sched.token <- struct{}{}
	<-t.wake
	<-t.sched.token
}

// Unpark wakes a parked task. At most one wakeup is buffered; Unpark never
// blocks. Calling Unpark on a task that is not parked makes its next Park
// return immediately.
func (t *Task) Unpark() {
	select {
	case t.wake <- struct{}{}:
	default:
	}
}
