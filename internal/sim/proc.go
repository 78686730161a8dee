package sim

import (
	"errors"
	"iter"
	"slices"
)

// ErrKilled is the panic value used to unwind a killed process. Process
// bodies must not recover it; the engine's wrapper does.
var ErrKilled = errors.New("sim: process killed")

// Proc is a simulated process: a coroutine that runs in lock-step with the
// engine. At most one process executes at a time on a serial engine; under
// Parallel, at most one process per lane executes at a time, and all state
// a process touches must be local to its lane. Process code needs no
// data-race protection for state it shares with other processes on the
// same lane — only logical critical sections (a Semaphore of one permit)
// for state invariants that must span blocking calls.
type Proc struct {
	eng  *Engine
	ln   *Lane
	name string

	// The coroutine hand-off (iter.Pull): next, called by the dispatcher,
	// switches into the process until it parks or returns; yield, called
	// by the process, switches back. A direct switch between the two
	// stacks, with no trip through the Go scheduler on either side. (The
	// runtime's one condition: a goroutine locked to an OS thread can only
	// resume coroutines created on that thread.)
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	sleeps  uint64 // generation counter for wake tokens
	waiting bool   // in a prepared sleep; with !done, what deadlock() reports
	killed  bool
	done    bool
}

// Spawn starts fn as a new process on lane 0. The process begins running
// at the current virtual time, after already-scheduled events at this time.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnOn(e.Lane(0), name, fn)
}

// SpawnOn starts fn as a new process resident on lane ln: all its events
// execute in that lane. On a serial engine the lane only tags the
// process; scheduling is unchanged. Must not be called from inside a
// parallel window.
func (e *Engine) SpawnOn(ln *Lane, name string, fn func(p *Proc)) *Proc {
	if ln == nil {
		ln = e.Lane(0)
	}
	if e.par != nil && ln.win {
		panic("sim: SpawnOn inside a parallel window")
	}
	p := &Proc{eng: e, ln: ln, name: name}
	e.live++
	if len(e.procs) == cap(e.procs) {
		// Full: drop finished processes before growing, so the list stays
		// proportional to the live ones however many come and go.
		e.procs = slices.DeleteFunc(e.procs, func(q *Proc) bool { return q.done })
	}
	e.procs = append(e.procs, p)
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.done = true
			r := recover()
			if e.par != nil && ln.win {
				// Exiting inside a parallel window: the merge folds the
				// delta into e.live.
				ln.liveD--
			} else {
				e.live--
			}
			if r != nil && r != ErrKilled {
				// Leave the panic for the dispatcher: dispatch (or feedDraw)
				// re-raises it at its canonical position, so it surfaces on
				// Run's caller (where a failure harness can recover it)
				// with the process named.
				ln.failVal, ln.failProc = r, name
			}
		}()
		fn(p)
	})
	ln.sched(ln, 0, event{p: p})
	return p
}

// dispatch switches to p and returns, on the dispatching goroutine (Run,
// or the lane executor under Parallel), when p yields again.
func (e *Engine) dispatch(p *Proc) {
	if p.done {
		return
	}
	p.next()
	if ln := p.ln; ln.failVal != nil {
		// The process panicked: re-raise on this goroutine with the
		// process named.
		r, name := ln.failVal, ln.failProc
		ln.failVal = nil
		panic(&ProcPanic{Proc: name, Value: r})
	}
}

// park returns control to the dispatcher until the process is resumed. On
// a serial engine the process first hosts the event loop (Engine.loop)
// and yields only if a dispatch other than its own comes first.
func (p *Proc) park() {
	if p.killed {
		// Killed while running (a failure injected from this process's
		// own context): unwind at the scheduling point instead of
		// blocking. The wait this park enters may have no wake source —
		// e.g. a reply to a request that died in the killed node's own
		// post queue — so deferring the check to resume would leave a
		// dead process blocked forever.
		panic(ErrKilled)
	}
	if e := p.eng; e.par != nil {
		p.yield(struct{}{})
	} else if !e.loop(p) {
		e.hosted = true
		p.yield(struct{}{})
	}
	if p.killed {
		panic(ErrKilled)
	}
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Lane returns the lane this process is resident on.
func (p *Proc) Lane() *Lane { return p.ln }

// Now returns the current virtual time (the process's lane clock under
// Parallel).
func (p *Proc) Now() int64 {
	if p.eng.par != nil {
		return p.ln.now
	}
	return p.eng.now
}

// Int63n draws from the engine's one deterministic random stream. On a
// serial engine it is Engine.Rand().Int63n. Under Parallel the draw
// suspends the lane until the merge reaches this event's canonical
// position and feeds the value, so the stream is consumed in exactly the
// serial order regardless of worker count.
func (p *Proc) Int63n(span int64) int64 {
	e := p.eng
	if e.par == nil {
		return e.rng.Int63n(span)
	}
	ln := p.ln
	ln.suspended = true
	ln.drawProc = p
	ln.drawSpan = span
	p.yield(struct{}{})
	return ln.drawVal
}

// Killed reports whether Kill has been called on this process.
func (p *Proc) Killed() bool { return p.killed }

// prepareSleep arms the process for a sleep and returns the wake token that
// a waker must present to wakeIf.
func (p *Proc) prepareSleep() uint64 {
	p.sleeps++
	p.waiting = true
	return p.sleeps
}

// doSleep parks until some waker calls wakeIf with the current token.
func (p *Proc) doSleep() {
	p.park()
}

// wakeIf resumes the process if it is still in the sleep identified by gen,
// and reports whether it did. It is a no-op for stale tokens, so multiple
// wake sources (a value arriving and a timeout) can race harmlessly. Must
// be called from the process's own lane context (engine context on a
// serial engine).
func (p *Proc) wakeIf(gen uint64) bool {
	if !p.waiting || p.sleeps != gen || p.done {
		return false
	}
	p.waiting = false
	p.ln.sched(p.ln, 0, event{p: p})
	return true
}

// Advance moves the process's virtual time forward by d nanoseconds,
// yielding to other activity in the meantime. A non-positive d still yields
// once, which makes Advance(0) a cooperative scheduling point.
func (p *Proc) Advance(d int64) {
	gen := p.prepareSleep()
	p.eng.wakeAt(d, p, gen)
	p.doSleep()
}

// Kill marks the process as killed and, if it is blocked, wakes it so the
// kill takes effect. The process unwinds via panic(ErrKilled), running its
// deferred functions. Killing a finished process is a no-op.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	if p.waiting {
		p.wakeIf(p.sleeps)
	}
}
