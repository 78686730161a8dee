package sim

// wakeHead wakes the longest-waiting process of a FIFO queue that is still
// in the sleep it queued with, and drops it and every entry ahead of it: a
// process killed while queued has woken already, and handing it the wake
// would leave the next waiter asleep for good.
func wakeHead(q []waiter) []waiter {
	for len(q) > 0 {
		w := q[0]
		// Slide down in place rather than re-slicing: q[1:] would strand
		// the backing array's head and force append to reallocate.
		copy(q, q[1:])
		q = q[:len(q)-1]
		if w.p.wakeIf(w.gen) {
			break
		}
	}
	return q
}

// Gate is a broadcast condition: processes Wait on it and a Broadcast wakes
// every current waiter. There is no lost-wakeup hazard in the cooperative
// model as long as callers re-check their predicate in a loop.
type Gate struct {
	waiters []waiter
	scratch []waiter // Broadcast's working copy; retains capacity across wakes
}

// Wait parks p until the next Broadcast.
func (g *Gate) Wait(p *Proc) {
	gen := p.prepareSleep()
	g.waiters = append(g.waiters, waiter{p, gen})
	p.doSleep()
}

// WaitTimeout parks p until the next Broadcast or until d nanoseconds
// elapse, and reports whether it was woken by a Broadcast.
func (g *Gate) WaitTimeout(p *Proc, d int64) bool {
	gen := p.prepareSleep()
	g.waiters = append(g.waiters, waiter{p, gen})
	p.eng.wakeAt(d, p, gen)
	p.doSleep()
	// A Broadcast removes every entry it wakes; if ours is still present,
	// the timeout fired first.
	for _, w := range g.waiters {
		if w.p == p && w.gen == gen {
			g.remove(p, gen)
			return false
		}
	}
	return true
}

func (g *Gate) remove(p *Proc, gen uint64) {
	for i, w := range g.waiters {
		if w.p == p && w.gen == gen {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			return
		}
	}
}

// Broadcast wakes every process currently waiting on the gate.
func (g *Gate) Broadcast() {
	// Copy to scratch first: a woken process may Wait again (re-appending
	// to g.waiters) before this loop finishes. Both slices keep their
	// capacity, so steady-state broadcasts allocate nothing.
	g.scratch = append(g.scratch[:0], g.waiters...)
	g.waiters = g.waiters[:0]
	for _, w := range g.scratch {
		w.p.wakeIf(w.gen)
	}
}

// Waiting returns the number of processes parked on the gate.
func (g *Gate) Waiting() int { return len(g.waiters) }

// Semaphore is a counting semaphore with FIFO wakeup, used to model bounded
// resources such as NIC post queues.
type Semaphore struct {
	avail int
	queue []waiter
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(n int) *Semaphore { return &Semaphore{avail: n} }

// Acquire takes one permit, blocking p until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	for s.avail <= 0 {
		gen := p.prepareSleep()
		s.queue = append(s.queue, waiter{p, gen})
		p.doSleep()
	}
	s.avail--
}

// Release returns one permit and wakes the longest-waiting live process, if
// any.
func (s *Semaphore) Release() {
	s.avail++
	s.queue = wakeHead(s.queue)
}

// Available returns the number of free permits.
func (s *Semaphore) Available() int { return s.avail }
