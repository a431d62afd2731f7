package audit

import (
	"errors"
	"sync"
	"testing"
	"time"

	"libseal/internal/asyncall"
)

// admissionConfig is a group-commit disk config with a staging budget.
func (e *auditEnv) admissionConfig(maxStaged int, admitTimeout time.Duration) Config {
	cfg := e.batchConfig("git", 2, 0)
	cfg.MaxStaged = maxStaged
	cfg.AdmitTimeout = admitTimeout
	return cfg
}

func row(i int) Row {
	return Row{Table: "updates", Values: []any{i, "r", "main", "c", "update"}}
}

func TestAdmissionShedsImmediatelyWhenFull(t *testing.T) {
	e := newAuditEnv(t)
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, e.admissionConfig(2, 0))
		return err
	})
	defer l.Close()
	shed0 := mAdmitShed.Value()
	e.call(t, func(env *asyncall.Env) error {
		// Fill the budget: two staged-but-not-durable entries.
		t1, err := l.Stage(env, []Row{row(1), row(2)})
		if err != nil {
			return err
		}
		// Zero AdmitTimeout: the over-budget stage is shed on the spot.
		if _, err := l.Stage(env, []Row{row(3)}); !errors.Is(err, ErrOverloaded) {
			t.Errorf("over-budget stage: %v, want ErrOverloaded", err)
		}
		if err := t1.Wait(env); err != nil {
			return err
		}
		// The pipeline drained; admission opens again.
		return l.Append(env, "updates", 4, "r", "main", "c", "update")
	})
	if got := mAdmitShed.Value() - shed0; got != 1 {
		t.Fatalf("shed count = %d, want 1", got)
	}
	if l.Seq() != 3 {
		t.Fatalf("seq = %d, want 3 (shed entry must not be durable)", l.Seq())
	}
	// The shed row must not linger in the database either: a trim would
	// otherwise fold a never-acknowledged row into the verified chain.
	res, err := l.Query("SELECT COUNT(*) FROM updates")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int64(); n != 3 {
		t.Fatalf("rows in db = %d, want 3", n)
	}
}

func TestAdmissionWaitsForDrain(t *testing.T) {
	e := newAuditEnv(t)
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, e.admissionConfig(2, 5*time.Second))
		return err
	})
	defer l.Close()
	waits0, shed0 := mAdmitWaits.Value(), mAdmitShed.Value()
	staged := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := e.bridge.Call(func(env *asyncall.Env) error {
			t1, err := l.Stage(env, []Row{row(1), row(2)})
			if err != nil {
				return err
			}
			close(staged)
			// Hold the full pipeline briefly, then commit: the parked
			// appender below must ride the drain, not time out.
			time.Sleep(50 * time.Millisecond)
			return t1.Wait(env)
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-staged
	e.call(t, func(env *asyncall.Env) error {
		return l.Append(env, "updates", 3, "r", "main", "c", "update")
	})
	wg.Wait()
	if got := mAdmitWaits.Value() - waits0; got < 1 {
		t.Fatalf("admission waits = %d, want >= 1", got)
	}
	if got := mAdmitShed.Value() - shed0; got != 0 {
		t.Fatalf("shed count = %d, want 0", got)
	}
	if l.Seq() != 3 {
		t.Fatalf("seq = %d, want 3", l.Seq())
	}
}

func TestAdmissionTimeoutSheds(t *testing.T) {
	e := newAuditEnv(t)
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, e.admissionConfig(2, 30*time.Millisecond))
		return err
	})
	defer l.Close()
	staged := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := e.bridge.Call(func(env *asyncall.Env) error {
			t1, err := l.Stage(env, []Row{row(1), row(2)})
			if err != nil {
				return err
			}
			close(staged)
			<-release // stall the pipeline well past the admit timeout
			return t1.Wait(env)
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-staged
	start := time.Now()
	err := e.bridge.Call(func(env *asyncall.Env) error {
		return l.Append(env, "updates", 3, "r", "main", "c", "update")
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("append against stalled pipeline: %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shed took %v, want ~AdmitTimeout", elapsed)
	}
	close(release)
	wg.Wait()
	if l.Seq() != 2 {
		t.Fatalf("seq = %d, want 2", l.Seq())
	}
}

func TestAdmissionAdmitsOversizedGroupOnEmptyPipeline(t *testing.T) {
	e := newAuditEnv(t)
	var l *oneShard
	e.call(t, func(env *asyncall.Env) error {
		var err error
		l, err = newOneShard(env, e.admissionConfig(2, 0))
		if err != nil {
			return err
		}
		// A group larger than the whole budget must still make progress
		// when the pipeline is idle.
		t1, err := l.Stage(env, []Row{row(1), row(2), row(3), row(4)})
		if err != nil {
			return err
		}
		return t1.Wait(env)
	})
	defer l.Close()
	if l.Seq() != 4 {
		t.Fatalf("seq = %d, want 4", l.Seq())
	}
}
