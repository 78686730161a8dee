package sim

import (
	"errors"
	"testing"
)

// TestKillWhileRunningUnwindsAtPark is the minimized regression for a
// deadlock found by failure-point exploration: a process killed from its
// own execution context (the failure injected while it was RUNNING, e.g.
// at its own message-send boundary) used to defer death to the next
// resume. If the wait it then entered had no wake source — a reply to a
// request that died in the killed node's own post queue — the process
// blocked forever and the run ended in a false deadlock. The kill must
// take effect at park entry instead.
func TestKillWhileRunningUnwindsAtPark(t *testing.T) {
	eng := New(1)
	g := &Gate{} // never broadcast: the wait has no wake source
	unwound := false
	eng.Spawn("victim", func(p *Proc) {
		defer func() {
			unwound = true
			if r := recover(); r != nil {
				panic(r) // preserve the engine's kill sentinel
			}
		}()
		p.Kill()  // failure injected from the process's own context
		g.Wait(p) // would block forever if the kill were deferred
		t.Error("victim survived its own kill")
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run = %v, want clean completion", err)
	}
	if !unwound {
		t.Fatal("victim never unwound")
	}
}

// TestKillWhileRunningStillRunsDefers: a kill unwinds along the normal
// panic path — at park entry when it was injected from the victim's own
// context, at the resume when the victim was parked — so the victim's
// deferred cleanups run, in order and exactly once (the timeout wake that
// outlives a process killed in WaitTimeout must not re-enter it).
func TestKillWhileRunningStillRunsDefers(t *testing.T) {
	cases := []struct {
		name   string
		block  func(p *Proc, g *Gate)
		killAt int64 // > 0: killed from engine context at this time instead
	}{
		{"from its own context", func(p *Proc, g *Gate) { p.Kill(); g.Wait(p) }, 0},
		{"parked in WaitTimeout", func(p *Proc, g *Gate) { g.WaitTimeout(p, 1_000_000) }, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := New(1)
			g := &Gate{}
			order := []string{}
			victim := eng.Spawn("victim", func(p *Proc) {
				defer func() { order = append(order, "outer") }()
				defer func() { order = append(order, "inner") }()
				tc.block(p, g)
				t.Error("victim ran past its wait")
			})
			if tc.killAt > 0 {
				eng.At(tc.killAt, victim.Kill)
			}
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if len(order) != 2 || order[0] != "inner" || order[1] != "outer" {
				t.Fatalf("defer order = %v", order)
			}
		})
	}
}

// TestProcPanicSurfacesOnRunCaller: a panic in a process body must
// re-raise on the goroutine that called Run — where a failure harness
// can recover it — naming the process, instead of crashing the process
// goroutine while the engine runs on.
func TestProcPanicSurfacesOnRunCaller(t *testing.T) {
	eng := New(1)
	eng.Spawn("bomber", func(p *Proc) {
		p.Advance(1000)
		panic("boom")
	})
	var got *ProcPanic
	func() {
		defer func() {
			r := recover()
			pp, ok := r.(*ProcPanic)
			if !ok {
				t.Fatalf("recovered %v (%T), want *ProcPanic", r, r)
			}
			got = pp
		}()
		eng.Run()
		t.Error("Run returned instead of panicking")
	}()
	if got.Proc != "bomber" || got.Value != "boom" {
		t.Fatalf("ProcPanic = {%q %v}", got.Proc, got.Value)
	}
}

// TestEventBudgetBoundsRun: an endless process trips the event budget
// with a typed, deterministic error instead of spinning forever. The
// failure explorer relies on this to classify livelocks.
func TestEventBudgetBoundsRun(t *testing.T) {
	eng := New(1)
	eng.SetEventBudget(500)
	eng.Spawn("spinner", func(p *Proc) {
		for {
			p.Advance(1000)
		}
	})
	err := eng.Run()
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("Run = %v, want *BudgetError", err)
	}
	if be.Executed < 500 {
		t.Fatalf("budget tripped after %d events, want >= 500", be.Executed)
	}
}
