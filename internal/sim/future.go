package sim

import "slices"

// Future is a one-shot value that processes can block on. A Future is
// created in the pending state and becomes done exactly once, via Resolve
// or Fail. Futures must be manipulated from engine or process context.
type Future struct {
	eng     *Engine
	done    bool
	val     any
	err     error
	waiters []waiter
	// w0 backs the first waiter inline: nearly every future is awaited by
	// exactly one process, so the common case needs no separate slice
	// allocation.
	w0 [1]waiter
}

// addWaiter appends w, seeding the slice from the inline buffer on first use.
func (f *Future) addWaiter(w waiter) {
	if f.waiters == nil {
		f.waiters = f.w0[:0]
	}
	f.waiters = append(f.waiters, w)
}

// removeWaiter drops w, keeping the others in order. A wait that timed out
// would otherwise leave its entry behind until the future completes: a
// no-op then, but a caller that waits in a loop of timeouts (a request
// re-armed every heartbeat) grows the list by one per round.
func (f *Future) removeWaiter(w waiter) {
	if i := slices.Index(f.waiters, w); i >= 0 {
		f.waiters = slices.Delete(f.waiters, i, i+1)
	}
}

type waiter struct {
	p   *Proc
	gen uint64
}

// NewFuture returns a pending future bound to the engine.
func (e *Engine) NewFuture() *Future { return &Future{eng: e} }

// InitFuture resets f to a pending future bound to the engine. It lets a
// future be embedded by value inside a caller's own struct, saving the
// separate allocation NewFuture would make.
func (e *Engine) InitFuture(f *Future) { *f = Future{eng: e} }

// Done reports whether the future has been resolved or failed.
func (f *Future) Done() bool { return f.done }

// Value returns the resolution value and error. Only meaningful once Done.
func (f *Future) Value() (any, error) { return f.val, f.err }

// Resolve completes the future successfully and wakes all waiters.
// Resolving a done future panics: a one-shot completing twice is a
// protocol bug that must not be masked.
func (f *Future) Resolve(v any) { f.complete(v, nil) }

// Fail completes the future with an error and wakes all waiters.
func (f *Future) Fail(err error) { f.complete(nil, err) }

func (f *Future) complete(v any, err error) {
	if f.done {
		panic("sim: future completed twice")
	}
	f.done = true
	f.val = v
	f.err = err
	for _, w := range f.waiters {
		w.p.wakeIf(w.gen)
	}
	f.waiters = nil
}

// Await blocks the process until the future completes and returns its
// value and error.
func (p *Proc) Await(f *Future) (any, error) {
	for !f.done {
		gen := p.prepareSleep()
		f.addWaiter(waiter{p, gen})
		p.doSleep()
	}
	return f.val, f.err
}

// AwaitTimeout blocks until the future completes or d nanoseconds elapse.
// The third result is false if the wait timed out; the future remains
// usable and may still complete later.
func (p *Proc) AwaitTimeout(f *Future, d int64) (any, error, bool) {
	if f.done {
		return f.val, f.err, true
	}
	gen := p.prepareSleep()
	f.addWaiter(waiter{p, gen})
	p.eng.wakeAt(d, p, gen)
	p.doSleep()
	if !f.done {
		f.removeWaiter(waiter{p, gen})
		return nil, nil, false
	}
	return f.val, f.err, true
}
