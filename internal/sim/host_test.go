package sim

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// A process that parks hosts the serial event loop until the next process
// dispatch (Engine.loop). These tests reach each way out of that loop with
// the process hosting it, and require Run to end exactly as it would have
// had it executed every event itself.

// hosting reports whether the caller runs inside a process that hosts the
// event loop, rather than on Run's goroutine.
func hosting() bool {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*Proc).park") {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestHostedCallbackPanicIsRaw: a callback that panics while a process
// hosts the loop reaches Run's caller as the raw value, as it does from
// Run's own goroutine, not as a ProcPanic naming the host; and the host's
// defers do not run, because its body did not fail.
func TestHostedCallbackPanicIsRaw(t *testing.T) {
	e := New(1)
	unwound := false
	e.Spawn("host", func(p *Proc) {
		defer func() { unwound = true }()
		p.Advance(100)
	})
	hosted := false
	e.At(5, func() {
		hosted = hosting()
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v (%T), want the raw value", r, r)
			}
		}()
		e.Run()
		t.Error("Run returned instead of panicking")
	}()
	if !hosted {
		t.Fatal("the callback ran on Run's goroutine: the test did not reach the hosted loop")
	}
	if unwound {
		t.Fatal("the host's defers ran for a callback's panic")
	}
}

// TestHostedLoopEnds: Stop, the event budget and an empty queue, each
// reached while a process hosts the loop, end Run exactly as they end it
// from Run's own goroutine.
func TestHostedLoopEnds(t *testing.T) {
	t.Run("Stop", func(t *testing.T) {
		e := New(1)
		e.Spawn("host", func(p *Proc) { p.Advance(100) })
		hosted := false
		e.At(5, func() {
			hosted = hosting()
			e.Stop()
		})
		if err := e.Run(); err != nil || !hosted {
			t.Fatalf("Run = %v, hosted %v", err, hosted)
		}
		if e.Events() != 2 || e.Now() != 5 {
			t.Fatalf("%d events by t=%d, want 2 by t=5", e.Events(), e.Now())
		}
	})
	t.Run("budget", func(t *testing.T) {
		e := New(1)
		e.SetEventBudget(6)
		e.Spawn("spinner", func(p *Proc) {
			for {
				p.Advance(10)
			}
		})
		err := e.Run()
		var be *BudgetError
		// Dispatch at 0, then a wake and a dispatch every 10 ns: the sixth
		// event is the wake at t=30.
		if !errors.As(err, &be) || be.Executed != 6 || be.Time != 30 {
			t.Fatalf("Run = %v, want the budget exceeded at event 6, t=30", err)
		}
		if e.inPlace != 2 {
			t.Fatalf("%d in-place resumes, want 2", e.inPlace)
		}
	})
	t.Run("deadlock", func(t *testing.T) {
		e := New(1)
		g := &Gate{}
		e.Spawn("stuck", func(p *Proc) { g.Wait(p) })
		hosted := false
		e.At(7, func() { hosted = hosting() })
		err := e.Run()
		var de *DeadlockError
		if !errors.As(err, &de) || de.Time != 7 || len(de.Procs) != 1 || de.Procs[0] != "stuck" || !hosted {
			t.Fatalf("Run = %v, hosted %v; want a deadlock at t=7 naming stuck", err, hosted)
		}
	})
}

// TestHostedLoopYieldsToScheduler is TestRunYieldsToScheduler with every
// event executed by a process hosting the loop: the periodic yield must
// happen there too.
func TestHostedLoopYieldsToScheduler(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ran atomic.Bool
	go ran.Store(true)
	e := New(1)
	ranByLast := false
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 8192; i++ {
			p.Advance(1)
		}
		ranByLast = ran.Load()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.inPlace != 8192 {
		t.Fatalf("%d of 8192 resumes in place", e.inPlace)
	}
	if !ranByLast {
		t.Fatalf("a runnable goroutine had not run by event %d: the hosted loop never yielded its P", e.Events())
	}
}

// TestInPlaceResumeAllocFree is the allocation gate for a process that
// resumes itself: a park, its wake event and the dispatch taken in place
// allocate nothing.
func TestInPlaceResumeAllocFree(t *testing.T) {
	e := New(1)
	allocs := -1.0
	var resumed int64
	e.Spawn("p", func(p *Proc) {
		p.Advance(1) // first use sizes the event queues
		n := e.inPlace
		allocs = testing.AllocsPerRun(1000, func() { p.Advance(1) })
		resumed = e.inPlace - n
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed != 1001 { // AllocsPerRun's warm-up call, then 1000
		t.Fatalf("%d of 1001 resumes in place", resumed)
	}
	if allocs != 0 {
		t.Fatalf("an in-place resume allocates %.2f objects", allocs)
	}
}
