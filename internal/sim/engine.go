// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock and an event heap. Simulated activities
// run either as plain callbacks or as processes: coroutines that execute
// one at a time, switched to and from by the scheduler, so that a
// simulation with any number of processes is fully deterministic for a
// given seed. A callback runs on whichever goroutine hosts the event loop
// at the time: Run's, or that of the process that parked last, which goes
// on executing events until the next process dispatch and so resumes
// itself without a switch when that dispatch is its own.
//
// All times are virtual nanoseconds.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
)

// Engine is a deterministic discrete-event scheduler. Create one with New,
// add processes with Spawn and callbacks with At, then call Run.
//
// Engine is not safe for concurrent use from arbitrary goroutines: all
// interaction must happen either from process context (inside a function
// started by Spawn) or from engine context (inside an At callback).
type Engine struct {
	now    int64
	seq    uint64
	events eventHeap
	// nowq holds events scheduled with zero delay — process dispatches and
	// NIC drains, a third of all events — in FIFO order, bypassing the
	// heap. Ordering stays exact: a zero-delay event is created at the
	// current instant, so its seq is greater than that of any timed event
	// already due, and FIFO order within the queue is seq order. The run
	// loop therefore drains due timed events before the now-queue.
	nowq   []event
	nqHead int
	// fifos hold timed events by delay value, in front of the heap (see
	// fifo). fifoMask has bit i set while fifos[i] is non-empty. minSrc
	// names the source holding the (t, seq)-minimal timed event — a fifo
	// index, heapSrc, or noSrc when no timed event is pending — and minT is
	// that event's time; both are kept current by pushTimed and popMin, so
	// an event taken off the now-queue looks at no timed source.
	fifos    [numFifos]fifo
	fifoMask uint8
	minSrc   int8
	minT     int64
	rng      *rand.Rand

	live int // spawned, not yet finished processes
	// procs lists the spawned processes (finished ones are dropped as it
	// fills, see SpawnOn); deadlock() reports the parked ones from it.
	procs []*Proc

	stopped    bool
	afterEvent func()

	executed int64 // events Run has executed so far
	budget   int64 // when > 0, Run returns a BudgetError after this many events

	// What a process that hosted the serial loop (see loop) leaves for
	// Run when it yields: hosted says it did, and so did the tail of the
	// event Run resumed it with; handoff is the process whose dispatch
	// comes next, handErr the error Run returns, raise a callback's panic
	// value. inPlace counts the dispatches a process took in place.
	hosted  bool
	handoff *Proc
	handErr error
	raise   any
	inPlace int64

	// Parallel execution (lane.go). lanes exist on serial engines too once
	// Lane() has been called (as thin delegates); par is non-nil only after
	// Parallel() enabled windowed execution.
	lanes     []*Lane
	par       *parRun
	lookahead int64
	// Last committed (t, seq) across all lanes and commit rounds; the
	// commit pass asserts it never regresses (lane.go).
	cmtT   int64
	cmtSeq uint64
}

type event struct {
	t   int64
	seq uint64
	fn  func()
	// Wake events carry the target process and its sleep token inline
	// instead of a fn closure: timeouts and Advance fire millions of times
	// per run, and a per-event closure allocation (plus its GC scan) was
	// the simulator's single largest allocation source. fn == nil marks a
	// wake event, or with gen == 0 (never a wake token) a dispatch of p.
	p   *Proc
	gen uint64
	// opRef links an event created during a parallel window to the lane op
	// recording its creation (index+1 into Lane.ops), so the merge can
	// resolve its true seq. Zero outside parallel windows.
	opRef int32
}

// before is the total event order: time, then schedule order. seq is
// unique, so the order is strict and any min-heap pops events in exactly
// the same sequence — determinism does not depend on heap shape.
func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap specialized to event. A Figure-7 run
// pops millions of events, so the generic container/heap (interface
// boxing on every Push/Pop, indirect Less/Swap calls) is replaced with
// inlined sifts. The 4-ary shape halves the tree depth of a binary heap,
// trading slightly more comparisons per level for far fewer cache-missing
// levels — the winning trade for the simulator's small, hot events.
type eventHeap struct {
	a []event
}

func (h *eventHeap) len() int { return len(h.a) }

func (h *eventHeap) push(e event) {
	h.a = append(h.a, e)
	// Sift up.
	a := h.a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !a[i].before(&a[p]) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	a := h.a
	top := a[0]
	last := len(a) - 1
	e := a[last]
	a[last] = event{} // release the fn reference for the GC
	h.a = a[:last]
	a = h.a
	// Sift the hole down, placing e once: moving children into the hole
	// halves the byte traffic of swap-based sifting.
	i := 0
	for {
		min := -1
		c := i*4 + 1
		end := c + 4
		if end > last {
			end = last
		}
		for ; c < end; c++ {
			if (min < 0 && a[c].before(&e)) || (min >= 0 && a[c].before(&a[min])) {
				min = c
			}
		}
		if min < 0 {
			break
		}
		a[i] = a[min]
		i = min
	}
	if last > 0 {
		a[i] = e
	}
	return top
}

// numFifos is the number of constant-delay queues in front of the heap;
// fifoIndex takes that many of the hash's top bits and fifoMask, a uint8,
// has one bit each.
const (
	fifoBits = 3
	numFifos = 1 << fifoBits
)

// Values of Engine.minSrc besides a fifo index.
const (
	heapSrc = numFifos
	noSrc   = -1
)

// fifo holds the pending timed events of one delay value, oldest first, in
// a ring. A simulated network has one wire latency and a few fixed
// timeouts, so most timed events are scheduled with one of a handful of
// delay values, and events scheduled with one delay value are created in
// (t, seq) order: now never goes backwards and seq only grows. Appending
// them to a queue keeps them sorted with no sift. A fifo holds one delay
// value at a time and takes another only when it is empty, so the argument
// holds for its whole contents; an event whose delay finds its fifo holding
// a different value goes to the heap, as every timed event used to. The
// run loop takes the (t, seq)-minimum over the heap top and the fifo
// heads, which is the minimum over all timed events, so every event
// executes at the position a single heap would have given it.
type fifo struct {
	delay int64   // the delay value of every event held; meaningless while n == 0
	buf   []event // ring; len is zero or a power of two
	head  int
	n     int
}

// fifoIndex maps a delay value to its fifo (Fibonacci hashing: the common
// delays are round numbers that differ in few bits).
func fifoIndex(delay int64) int {
	return int(uint64(delay) * 0x9E3779B97F4A7C15 >> (64 - fifoBits))
}

func (q *fifo) push(ev event) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = ev
	q.n++
}

func (q *fifo) grow() {
	buf := make([]event, max(16, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

func (q *fifo) pop() event {
	ev := q.buf[q.head]
	q.buf[q.head] = event{} // release the fn and p references for the GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return ev
}

// pushTimed queues ev to run delay > 0 nanoseconds from now; the caller
// has set ev.seq.
func (e *Engine) pushTimed(delay int64, ev event) {
	ev.t = e.now + delay
	src := heapSrc
	i := fifoIndex(delay)
	if q := &e.fifos[i]; q.n == 0 || q.delay == delay {
		q.delay = delay
		q.push(ev)
		e.fifoMask |= 1 << i
		src = i
	} else {
		e.events.push(ev)
	}
	// ev has the largest seq so far: it precedes the current minimum only
	// with a strictly earlier time, and it then heads its source.
	if e.minSrc == noSrc || ev.t < e.minT {
		e.minSrc, e.minT = int8(src), ev.t
	}
}

// popMin removes and returns the (t, seq)-minimal timed event, which
// minSrc names, and finds the next one.
func (e *Engine) popMin() event {
	var ev event
	if i := e.minSrc; i == heapSrc {
		ev = e.events.pop()
	} else {
		q := &e.fifos[i]
		ev = q.pop()
		if q.n == 0 {
			e.fifoMask &^= 1 << i
		}
	}
	src, t, seq := noSrc, int64(0), uint64(0)
	if e.events.len() > 0 {
		top := &e.events.a[0]
		src, t, seq = heapSrc, top.t, top.seq
	}
	for m := e.fifoMask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		q := &e.fifos[i]
		if h := &q.buf[q.head]; src == noSrc || h.t < t || (h.t == t && h.seq < seq) {
			src, t, seq = i, h.t, h.seq
		}
	}
	e.minSrc, e.minT = int8(src), t
	return ev
}

// New returns an engine whose random source is seeded with seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), minSrc: noSrc}
}

// Now returns the current virtual time in nanoseconds.
func (e *Engine) Now() int64 { return e.now }

// Rand returns the engine's deterministic random source. It must only be
// used from process or engine context.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn to run in engine context after delay nanoseconds.
// A negative delay is treated as zero. On a parallel engine this targets
// lane 0; lane-resident code must use Lane.At / Lane.Post instead.
func (e *Engine) At(delay int64, fn func()) {
	if e.par != nil {
		ln := e.Lane(0)
		ln.sched(ln, delay, event{fn: fn})
		return
	}
	e.seq++
	if delay <= 0 {
		e.nowq = append(e.nowq, event{t: e.now, seq: e.seq, fn: fn})
		return
	}
	e.pushTimed(delay, event{seq: e.seq, fn: fn})
}

// wakeAt schedules p.wakeIf(gen) after delay nanoseconds without
// allocating a closure (see event). Wakes are always scheduled from the
// process's own lane context (the process itself, or lane-local code),
// so they route through the lane scheduler.
func (e *Engine) wakeAt(delay int64, p *Proc, gen uint64) {
	p.ln.sched(p.ln, delay, event{p: p, gen: gen})
}

// Stop makes Run return after the current event completes. Pending events
// are discarded.
func (e *Engine) Stop() { e.stopped = true }

// Events returns the number of events Run has executed so far. It is a
// progress measure independent of virtual time — the unit failure-point
// budgets are expressed in.
func (e *Engine) Events() int64 { return e.executed }

// SetEventBudget bounds the total number of events Run may execute;
// exceeding it makes Run return a BudgetError. A failure-injection run
// that livelocks (retry loops that never converge) would otherwise spin
// forever at zero virtual-time progress per retry, which a wall-clock or
// virtual-time limit cannot bound deterministically. Pass 0 to remove
// the bound. The budget counts events executed since New, not since this
// call.
func (e *Engine) SetEventBudget(n int64) { e.budget = n }

// SetAfterEvent installs fn to run in engine context after every executed
// event — the event-boundary hook online invariant auditors attach to.
// The hook must not schedule events; it may call Stop. Pass nil to remove.
// No hook is installed by default, so the cost is one nil check per event.
// Incompatible with Parallel: the hook is inherently serial.
func (e *Engine) SetAfterEvent(fn func()) {
	if fn != nil && e.par != nil {
		panic("sim: SetAfterEvent is incompatible with Parallel")
	}
	e.afterEvent = fn
}

// yieldMask makes the serial run loop give up its P once every 4096
// events. Process switches are coroutine hand-offs that bypass the Go
// scheduler, so a run that keeps every P busy never reaches a scheduling
// point: the collector's concurrent mark worker then waits for the 10 ms
// preemption tick to get a P, and for as long as its mark phase stays
// open every pointer store in the simulation pays the write barrier.
// Where a P is idle the mark worker has one already and each yield only
// wakes a thread that finds nothing to do, which is what bounds the
// stride from below (DESIGN section 9 has both sets of measurements).
const yieldMask = 1<<12 - 1

// Run executes events until none remain or Stop is called. It returns a
// DeadlockError if processes are still blocked when the event heap drains.
func (e *Engine) Run() error {
	if e.par != nil {
		return e.runParallel()
	}
	e.loop(nil)
	if err := e.handErr; err != nil {
		e.handErr = nil
		return err
	}
	if e.stopped {
		return nil
	}
	if e.live > 0 {
		return e.deadlock()
	}
	return nil
}

// loop is the serial event loop. Run runs it with host nil; a process
// parking inside its own dispatch runs it on its own stack with host
// itself, starting with that dispatch's tail, and it returns true when
// the host's own dispatch comes next: the host resumes with no coroutine
// switch. Otherwise it returns false: at Stop, an exceeded budget (error
// in e.handErr) or an empty queue, and a hosted loop also at another live
// process's dispatch (left in e.handoff for Run) or at a panic in a
// callback or the hook (left in e.raise for Run to re-raise, so that it
// neither unwinds the host's body nor names the host in a ProcPanic).
func (e *Engine) loop(host *Proc) (resumed bool) {
	if host != nil {
		defer func() {
			if r := recover(); r != nil {
				e.raise = r
			}
		}()
	}
	tail := host != nil
	for {
		if tail {
			// The tail of every event, whichever goroutine executed it.
			e.executed++
			if e.afterEvent != nil {
				e.afterEvent()
			}
			if e.budget > 0 && e.executed >= e.budget && !e.stopped {
				e.handErr = &BudgetError{Time: e.now, Executed: e.executed}
				return false
			}
			if e.executed&yieldMask == 0 {
				runtime.Gosched()
			}
		}
		tail = true
		if e.stopped {
			return false
		}
		var ev event
		// Due timed events were scheduled before time reached e.now, so
		// their seqs precede every now-queue entry: drain them first.
		if e.nqHead < len(e.nowq) && (e.minSrc == noSrc || e.minT > e.now) {
			ev = e.nowq[e.nqHead]
			e.nowq[e.nqHead] = event{}
			e.nqHead++
			if e.nqHead == len(e.nowq) {
				e.nowq = e.nowq[:0]
				e.nqHead = 0
			}
		} else if e.minSrc != noSrc {
			ev = e.popMin()
			if ev.t > e.now {
				e.now = ev.t
			}
		} else {
			return false
		}
		switch {
		case ev.fn != nil:
			ev.fn()
		case ev.gen != 0:
			ev.p.wakeIf(ev.gen)
		case host == nil:
			// Run dispatches the process, and then every process that the
			// ones it resumes hand the loop back for. A process that
			// yielded from the loop it hosted did the tail; one that
			// finished, was killed or had finished already did not.
			for p := ev.p; ; {
				e.dispatch(p)
				if tail = !e.hosted; tail {
					break
				}
				e.hosted = false
				if r := e.raise; r != nil {
					e.raise = nil
					panic(r)
				}
				if p = e.handoff; p == nil {
					break
				}
				e.handoff = nil
			}
			if e.handErr != nil {
				return false
			}
		case ev.p == host:
			e.inPlace++
			return true
		case !ev.p.done:
			e.handoff = ev.p
			return false
		}
	}
}

// BudgetError reports that Run exceeded its event budget (SetEventBudget)
// — the deterministic signature of a livelocked simulation.
type BudgetError struct {
	Time     int64
	Executed int64
}

func (b *BudgetError) Error() string {
	return fmt.Sprintf("sim: event budget exceeded: %d events executed by t=%dns", b.Executed, b.Time)
}

// ProcPanic wraps a panic that escaped a process body, naming the
// process. It is re-raised on the goroutine running the engine, so a
// caller of Run may recover it — the hook failure-injection harnesses
// use to turn a protocol panic into a verdict instead of a crash.
type ProcPanic struct {
	Proc  string
	Value any
}

func (p *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %s panicked: %v", p.Proc, p.Value)
}

// DeadlockError reports processes that were still blocked when the event
// heap drained.
type DeadlockError struct {
	Time  int64
	Procs []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%dns, %d blocked: %v", d.Time, len(d.Procs), d.Procs)
}

func (e *Engine) deadlock() error {
	var names []string
	for _, p := range e.procs {
		if p.waiting && !p.done {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	t := e.now
	if e.par != nil {
		t = e.maxLaneNow()
	}
	return &DeadlockError{Time: t, Procs: names}
}
