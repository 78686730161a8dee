package sim

import (
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

func TestAdvanceOrdering(t *testing.T) {
	e := New(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		p.Advance(100)
		order = append(order, "a@100")
		p.Advance(200)
		order = append(order, "a@300")
	})
	e.Spawn("b", func(p *Proc) {
		p.Advance(150)
		order = append(order, "b@150")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@100", "b@150", "a@300"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 300 {
		t.Fatalf("final time = %d, want 300", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(50, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("events at equal time not FIFO: %v", order)
		}
	}
}

func TestFutureResolveWakesWaiters(t *testing.T) {
	e := New(1)
	f := e.NewFuture()
	var got [2]any
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			v, err := p.Await(f)
			if err != nil {
				t.Errorf("Await error: %v", err)
			}
			got[i] = v
		})
	}
	e.At(500, func() { f.Resolve(42) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 || got[1] != 42 {
		t.Fatalf("got %v, want both 42", got)
	}
}

func TestAwaitAlreadyDone(t *testing.T) {
	e := New(1)
	f := e.NewFuture()
	f.Resolve("x")
	var got any
	e.Spawn("w", func(p *Proc) { got, _ = p.Await(f) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "x" {
		t.Fatalf("got %v", got)
	}
}

func TestAwaitTimeout(t *testing.T) {
	e := New(1)
	f := e.NewFuture()
	var timedOut, completed bool
	var tAt int64
	e.Spawn("w", func(p *Proc) {
		_, _, ok := p.AwaitTimeout(f, 1000)
		timedOut = !ok
		tAt = p.Now()
		// Future resolves later; a second wait should succeed.
		v, err := p.Await(f)
		completed = err == nil && v == 7
	})
	e.At(5000, func() { f.Resolve(7) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut || tAt != 1000 {
		t.Fatalf("timedOut=%v at t=%d, want timeout at 1000", timedOut, tAt)
	}
	if !completed {
		t.Fatal("second Await did not observe the late resolution")
	}
}

// TestAwaitTimeoutLeavesNoWaiter pins what a timed-out wait leaves on the
// future: nothing. A request that re-arms its wait every heartbeat used to
// add one stale waiter per round, spilling the inline slot to the heap.
func TestAwaitTimeoutLeavesNoWaiter(t *testing.T) {
	e := New(1)
	f := e.NewFuture()
	allocs := -1.0
	e.Spawn("p", func(p *Proc) {
		p.AwaitTimeout(f, 5) // first use sizes the event queues
		allocs = testing.AllocsPerRun(1000, func() {
			if _, _, ok := p.AwaitTimeout(f, 5); ok {
				t.Error("a pending future reported done")
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(f.waiters) > 1 {
		t.Fatalf("the future holds %d waiters after 1000 timeouts", len(f.waiters))
	}
	if allocs != 0 {
		t.Fatalf("a timed-out wait allocates %.2f objects", allocs)
	}
}

// TestAwaitTimeoutKeepsOtherWaiters: removing the entry of a wait that
// timed out leaves the others waiting, and in their order.
func TestAwaitTimeoutKeepsOtherWaiters(t *testing.T) {
	e := New(1)
	f := e.NewFuture()
	var order []string
	wait := func(name string, d int64) {
		e.Spawn(name, func(p *Proc) {
			if d == 0 {
				p.Await(f)
			} else if _, _, ok := p.AwaitTimeout(f, d); ok {
				t.Errorf("%s: timed wait reported done at %d", name, p.Now())
			}
			order = append(order, name)
		})
	}
	wait("a", 0)
	wait("b", 10)
	wait("c", 0)
	e.At(20, func() { f.Resolve(nil) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []string{"b", "a", "c"}) {
		t.Fatalf("wake order %v, want [b a c]", order)
	}
}

func TestFutureFail(t *testing.T) {
	e := New(1)
	f := e.NewFuture()
	sentinel := errors.New("boom")
	var got error
	e.Spawn("w", func(p *Proc) { _, got = p.Await(f) })
	e.At(10, func() { f.Fail(sentinel) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != sentinel {
		t.Fatalf("got %v, want sentinel", got)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := New(1)
	f := e.NewFuture()
	e.Spawn("stuck", func(p *Proc) { p.Await(f) })
	err := e.Run()
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(d.Procs) != 1 || d.Procs[0] != "stuck" {
		t.Fatalf("blocked procs = %v", d.Procs)
	}
}

// TestDeadlockNamesOnlyParked: the report lists exactly the processes
// still in a sleep, sorted — not one that returned while its siblings
// stayed parked, and not one that unwound out of a prepared sleep (a kill
// at park entry leaves it marked waiting, but finished).
func TestDeadlockNamesOnlyParked(t *testing.T) {
	e := New(1)
	var g Gate
	f := e.NewFuture()
	e.Spawn("zeta", func(p *Proc) { g.Wait(p) })
	e.Spawn("returns", func(p *Proc) { p.Advance(10) })
	e.Spawn("alpha", func(p *Proc) { p.Await(f) })
	e.Spawn("self-killed", func(p *Proc) { p.Kill(); g.Wait(p) })
	e.Spawn("mid", func(p *Proc) { p.Advance(20); g.Wait(p) })
	err := e.Run()
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if want := []string{"alpha", "mid", "zeta"}; !slices.Equal(d.Procs, want) {
		t.Fatalf("blocked procs = %v, want %v", d.Procs, want)
	}
}

// TestFinishedProcsLeaveNoGoroutines: a process's coroutine is gone once
// its body returns, so short-lived processes cost nothing after the run
// (and the engine's process list does not grow with them).
func TestFinishedProcsLeaveNoGoroutines(t *testing.T) {
	const n = 10_000
	before := runtime.NumGoroutine()
	e := New(1)
	ran := 0
	e.Spawn("spawner", func(p *Proc) {
		for i := 0; i < n; i++ {
			e.Spawn("child", func(c *Proc) { c.Advance(5); ran++ })
			p.Advance(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != n {
		t.Fatalf("%d of %d children ran", ran, n)
	}
	// Not !=: worker pools of earlier parallel-engine tests may still be
	// winding down, which only lowers the count. A leak here is 10 000.
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after the run, %d before it", got, before)
	}
	if len(e.procs) > 64 {
		t.Fatalf("engine still lists %d processes, all finished", len(e.procs))
	}
}

// TestProcSwitchAllocFree is the allocation gate for the process switch:
// in steady state a park, its wake event and the dispatch of another
// process, handed back to Run, allocate nothing. Two processes advance in
// lock step, so every dispatch is the other one's (TestInPlaceResumeAllocFree
// has a process resuming itself).
func TestProcSwitchAllocFree(t *testing.T) {
	e := New(1)
	allocs := -1.0
	e.Spawn("p", func(p *Proc) {
		p.Advance(1) // first use sizes the event queues
		allocs = testing.AllocsPerRun(1000, func() { p.Advance(1) })
	})
	e.Spawn("q", func(q *Proc) {
		for i := 0; i < 1002; i++ {
			q.Advance(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.inPlace != 0 {
		t.Fatalf("%d dispatches taken in place: the processes did not alternate", e.inPlace)
	}
	if allocs != 0 {
		t.Fatalf("a park/dispatch round trip allocates %.2f objects", allocs)
	}
}

// TestRunYieldsToScheduler pins the run loop's periodic yield. With one P
// and no yield, a goroutine made runnable before Run gets the P only at
// the 10 ms preemption tick, and 8192 callback events (two yield strides)
// take a fraction of a millisecond; the collector's mark worker is such a
// goroutine.
func TestRunYieldsToScheduler(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ran atomic.Bool
	go ran.Store(true)
	e := New(1)
	n, ranByLast := 0, false
	var tick func()
	tick = func() {
		if n++; n < 8192 {
			e.At(1, tick)
			return
		}
		ranByLast = ran.Load()
	}
	e.At(1, tick)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ranByLast {
		t.Fatalf("a runnable goroutine had not run by event %d: Run never yielded its P", n)
	}
}

// TestKillUnwindsDefers: the kill comes from a callback that the victim
// itself executes while it hosts the loop; the victim unwinds at its next
// resume, in place, running its defers, and every event counts once.
func TestKillUnwindsDefers(t *testing.T) {
	e := New(1)
	f := e.NewFuture()
	cleaned, hosted := false, false
	p := e.Spawn("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Await(f)
		t.Error("victim ran past Await after kill")
	})
	e.At(100, func() {
		hosted = hosting()
		p.Kill()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !cleaned {
		t.Fatal("deferred cleanup did not run on kill")
	}
	if !hosted || e.inPlace != 1 {
		t.Fatalf("hosted %v, %d in-place resumes: the kill did not reach the victim in place", hosted, e.inPlace)
	}
	if e.Events() != 3 { // the first dispatch, the kill, the dispatch that unwinds
		t.Fatalf("%d events, want 3", e.Events())
	}
}

func TestKillDuringAdvance(t *testing.T) {
	e := New(1)
	reached := false
	p := e.Spawn("victim", func(p *Proc) {
		p.Advance(1000)
		reached = true
	})
	e.At(10, func() { p.Kill() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("killed process ran past Advance")
	}
	if !p.Killed() {
		t.Fatal("Killed() = false")
	}
}

func TestSemaphoreFIFO(t *testing.T) {
	e := New(1)
	sem := NewSemaphore(1)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			p.Advance(int64(i)) // stagger arrival: 0, 1, 2
			sem.Acquire(p)
			order = append(order, i)
			p.Advance(100)
			sem.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("acquire order = %v, want FIFO", order)
		}
	}
}

func TestSemaphoreExclusion(t *testing.T) {
	e := New(1)
	sem := NewSemaphore(1)
	inside := 0
	maxInside := 0
	for i := 0; i < 5; i++ {
		e.Spawn("p", func(p *Proc) {
			sem.Acquire(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Advance(10)
			inside--
			sem.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", maxInside)
	}
}

func TestGateBroadcast(t *testing.T) {
	e := New(1)
	var g Gate
	woke := 0
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Proc) {
			g.Wait(p)
			woke++
		})
	}
	e.At(100, func() {
		if g.Waiting() != 4 {
			t.Errorf("Waiting() = %d, want 4", g.Waiting())
		}
		g.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 4 {
		t.Fatalf("woke = %d, want 4", woke)
	}
}

func TestSemaphoreBounds(t *testing.T) {
	e := New(1)
	s := NewSemaphore(2)
	inside, maxInside := 0, 0
	for i := 0; i < 6; i++ {
		e.Spawn("p", func(p *Proc) {
			s.Acquire(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Advance(50)
			inside--
			s.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 2 {
		t.Fatalf("max inside = %d, want 2", maxInside)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, []int) {
		e := New(42)
		var trace []int
		sem := NewSemaphore(1)
		for i := 0; i < 8; i++ {
			i := i
			e.Spawn("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Advance(e.Rand().Int63n(100) + 1)
					sem.Acquire(p)
					trace = append(trace, i)
					p.Advance(7)
					sem.Release()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now(), trace
	}
	t1, tr1 := run()
	t2, tr2 := run()
	if t1 != t2 || len(tr1) != len(tr2) {
		t.Fatalf("non-deterministic: t %d vs %d", t1, t2)
	}
	for i := range tr1 {
		if tr1[i] != tr2[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	n := 0
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Advance(10)
			n++
			if n == 5 {
				e.Stop()
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("ran %d iterations, want 5", n)
	}
}
