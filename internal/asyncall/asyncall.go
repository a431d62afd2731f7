// Package asyncall implements LibSEAL's asynchronous enclave transition
// mechanism (§4.3). Instead of application threads paying a hardware
// transition for every ecall and ocall, calls are exchanged through shared
// slot arrays: an application thread writes an async-ecall into its slot;
// lthread tasks running on resident enclave (SGX) threads pick it up and
// execute it inside; when enclave code needs untrusted functionality it
// posts an async-ocall back into the same slot and parks, and the owning
// application thread executes it outside.
//
// On real SGX hardware the two sides discover pending work by busy-polling
// the arrays (the paper dedicates a polling thread to waking application
// threads). This simulation transfers call data through the same
// per-application-thread slots but signals readiness through Go channels —
// the host-side analogue of the polling thread's wakeups — so that the
// mechanism behaves sensibly on machines without spare cores to burn. The
// costs charged per handoff come from the enclave cost model.
//
// The same Bridge also offers a synchronous mode in which every call is a
// real transition, used as the baseline for Table 2.
package asyncall

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"libseal/internal/enclave"
	"libseal/internal/lthread"
	"libseal/internal/telemetry"
)

// Bridge telemetry: the sync/async split reproduces Table 2's comparison,
// and queue depth shows how far ahead of the schedulers callers run.
var (
	mSyncCalls  = telemetry.NewCounter("asyncall.sync_calls", "calls")
	mAsyncCalls = telemetry.NewCounter("asyncall.async_calls", "calls")
	mQueueDepth = telemetry.NewGauge("asyncall.queue_depth", "slots")
)

// Mode selects how calls cross the enclave boundary.
type Mode int

const (
	// ModeSync performs one hardware transition per ecall/ocall.
	ModeSync Mode = iota
	// ModeAsync exchanges calls through the shared slot arrays.
	ModeAsync
)

func (m Mode) String() string {
	if m == ModeAsync {
		return "async"
	}
	return "sync"
}

// ErrClosed is returned by Call after the bridge has been closed.
var ErrClosed = errors.New("asyncall: bridge closed")

// Env is the execution environment handed to an ecall body. Ctx gives access
// to enclave facilities; Ocall runs fn in untrusted code using whichever
// mechanism the bridge is configured for.
type Env struct {
	Ctx   *enclave.Ctx
	ocall func(func() error) error
}

// Ocall executes fn outside the enclave and returns its error.
func (e *Env) Ocall(fn func() error) error { return e.ocall(fn) }

// Lock acquires mu from inside an enclave call without ever blocking an
// enclave thread. An lthread scheduler runs one task at a time, and a task
// that blocks on a contended mutex keeps the scheduler's thread — so if the
// mutex owner is a sibling task parked in an async-ocall, the owner can
// never resume to unlock: a deadlock the synchronous mode cannot exhibit.
// Lock therefore takes the mutex directly only when it is free; a contended
// acquisition runs as an ocall, parking the task (and releasing the enclave
// thread) until the lock is held. The caller unlocks mu normally —
// sync.Mutex is explicitly not goroutine-affine.
func Lock(env *Env, mu *sync.Mutex) {
	if mu.TryLock() {
		return
	}
	env.Ocall(func() error {
		mu.Lock()
		return nil
	})
}

// Config sizes the bridge. The zero value of any field picks a default.
type Config struct {
	Mode Mode
	// AppSlots (A) is the number of async-call request slots, one per
	// concurrently calling application thread.
	AppSlots int
	// Schedulers (S) is the number of resident enclave threads, each
	// running one lthread scheduler.
	Schedulers int
	// TasksPerScheduler (T) is the number of lthread tasks per scheduler.
	// The paper's heuristic is T >= A/S.
	TasksPerScheduler int
}

func (c Config) withDefaults() Config {
	if c.AppSlots <= 0 {
		c.AppSlots = 48
	}
	if c.Schedulers <= 0 {
		c.Schedulers = 3
	}
	if c.TasksPerScheduler <= 0 {
		c.TasksPerScheduler = (c.AppSlots + c.Schedulers - 1) / c.Schedulers
	}
	return c
}

// slot is one application thread's request slot in the shared arrays. The
// ecall closure, ocall closure and results transfer through it; the channels
// deliver the wakeups that hardware LibSEAL obtains by polling.
type slot struct {
	ecall    func(*Env) error
	ocallFn  func() error
	ocallErr error
	err      error
	task     *lthread.Task
	// appWake tells the owning application thread that either an
	// async-ocall awaits execution (ocallPending true) or the call
	// completed.
	appWake      chan struct{}
	ocallPending atomic.Bool
}

// Bridge connects application threads to an enclave.
type Bridge struct {
	encl   *enclave.Enclave
	cfg    Config
	free   chan *slot
	pend   chan *slot // posted async-ecalls awaiting a scheduler
	scheds []*lthread.Scheduler
	quit   chan struct{}
	closed atomic.Bool
	inUse  atomic.Int64
	wg     sync.WaitGroup
}

// New builds a bridge for the enclave. In async mode it launches the
// resident scheduler threads (each consuming one of the enclave's TCS
// slots).
func New(encl *enclave.Enclave, cfg Config) (*Bridge, error) {
	cfg = cfg.withDefaults()
	b := &Bridge{encl: encl, cfg: cfg, quit: make(chan struct{})}
	if cfg.Mode == ModeSync {
		return b, nil
	}
	b.free = make(chan *slot, cfg.AppSlots)
	b.pend = make(chan *slot, cfg.AppSlots)
	for i := 0; i < cfg.AppSlots; i++ {
		b.free <- &slot{appWake: make(chan struct{}, 1)}
	}
	started := make(chan error, cfg.Schedulers)
	for i := 0; i < cfg.Schedulers; i++ {
		sched := lthread.NewScheduler(cfg.TasksPerScheduler)
		b.scheds = append(b.scheds, sched)
		b.wg.Add(1)
		go func(sched *lthread.Scheduler) {
			defer b.wg.Done()
			err := encl.EnterResident(func(ctx *enclave.Ctx) {
				started <- nil
				b.dispatch(ctx, sched)
			})
			if err != nil {
				started <- err
			}
		}(sched)
	}
	for i := 0; i < cfg.Schedulers; i++ {
		if err := <-started; err != nil {
			close(b.quit)
			b.wg.Wait()
			return nil, err
		}
	}
	return b, nil
}

// Enclave returns the enclave this bridge serves.
func (b *Bridge) Enclave() *enclave.Enclave { return b.encl }

// Call executes fn inside the enclave and returns its error. In sync mode it
// is a plain ecall; in async mode it posts the request into a free slot and
// sleeps until woken, executing any async-ocalls the enclave code requests
// in the meantime (steps 1-6 of Fig. 4).
func (b *Bridge) Call(fn func(*Env) error) error {
	if b.closed.Load() {
		return ErrClosed
	}
	if b.cfg.Mode == ModeSync {
		mSyncCalls.Inc()
		return b.encl.Ecall(func(ctx *enclave.Ctx) error {
			env := &Env{Ctx: ctx, ocall: ctx.Ocall}
			return fn(env)
		})
	}
	mAsyncCalls.Inc()
	s := <-b.free
	b.inUse.Add(1)
	defer func() {
		b.inUse.Add(-1)
		b.free <- s
	}()
	if b.closed.Load() {
		// Close may already be draining; do not start new work.
		return ErrClosed
	}
	s.ecall = fn
	s.err = nil
	b.encl.NoteAsyncEcall()
	select {
	case b.pend <- s:
		mQueueDepth.Add(1)
	case <-b.quit:
		return ErrClosed
	}
	for {
		select {
		case <-s.appWake:
		case <-b.quit:
			return ErrClosed
		}
		if s.ocallPending.Load() {
			// Step 4 of Fig. 4: this application thread executes the
			// async-ocall outside the enclave, then resumes the waiting
			// lthread task (step 5).
			s.ocallErr = s.ocallFn()
			s.ocallPending.Store(false)
			s.task.Unpark()
			continue
		}
		err := s.err
		s.ecall, s.ocallFn, s.task = nil, nil, nil
		return err
	}
}

// dispatch is the lthread scheduler loop running on one resident enclave
// thread: it takes pending async-ecalls and hands each to a free lthread
// task (step 2 of Fig. 4). Submit blocks while all of this scheduler's
// tasks are busy, so excess requests flow to the other schedulers.
func (b *Bridge) dispatch(ctx *enclave.Ctx, sched *lthread.Scheduler) {
	for {
		select {
		case <-b.quit:
			return
		case s := <-b.pend:
			mQueueDepth.Add(-1)
			if err := sched.Submit(func(task *lthread.Task) {
				b.runEcall(ctx, s, task)
			}); err != nil {
				// Scheduler shut down mid-dispatch: fail the call.
				s.err = ErrClosed
				s.appWake <- struct{}{}
				return
			}
		}
	}
}

// runEcall executes one async-ecall on an lthread task inside the enclave.
func (b *Bridge) runEcall(ctx *enclave.Ctx, s *slot, task *lthread.Task) {
	s.task = task
	env := &Env{
		Ctx: ctx,
		ocall: func(fn func() error) error {
			// Step 3 of Fig. 4: post the async-ocall into the slot bound
			// to the calling application thread, then park. The same task
			// resumes once the result is available (step 5).
			s.ocallFn = fn
			b.encl.NoteAsyncOcall()
			s.ocallPending.Store(true)
			s.appWake <- struct{}{}
			task.Park()
			return s.ocallErr
		},
	}
	s.err = s.ecall(env)
	s.appWake <- struct{}{}
}

// Close shuts the bridge down. New Calls fail with ErrClosed immediately;
// outstanding Calls are drained first, so callers must have closed any
// connections whose ocalls could block indefinitely.
func (b *Bridge) Close() {
	if b.closed.Swap(true) {
		return
	}
	if b.cfg.Mode == ModeAsync {
		for b.inUse.Load() != 0 {
			// Outstanding calls are finishing; yield until drained.
			runtime.Gosched()
		}
	}
	close(b.quit)
	for _, s := range b.scheds {
		s.Shutdown()
	}
	b.wg.Wait()
}
