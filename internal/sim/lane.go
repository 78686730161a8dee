// Conservative parallel discrete-event execution.
//
// The engine's serial run loop executes events in (t, seq) order — time,
// then creation order (see event.before and the now-queue argument in
// engine.go). The parallel mode reproduces exactly that order's observable
// effects while executing independent per-lane event streams concurrently.
// Execution and commit are decoupled:
//
// Execution. Every event belongs to a lane (one lane per simulated node).
// All state a lane's events touch is lane-local; the only cross-lane
// interaction is Post, which must carry a delay of at least the engine's
// lookahead L (the minimum wire latency). Each round, lane i may safely
// execute every pending event with t < hzn_i, where
//
//	hzn_i = min over other lanes j of min(earliest_j, min1 + L) + L
//
// earliest_j is lane j's earliest uncommitted item (an executed-but-
// uncommitted record, a suspended event, or its next pending event) and
// min1 the global minimum of earliest over all lanes. The inner min is
// lane j's earliest possible future activity: it executes its own pending
// work no sooner than earliest_j, and the earliest instant anyone can
// hand it new work is min1 + L (the globally first unexecuted event plus
// one wire hop) — an idle lane parked far in the future still reacts to
// an incoming message at its arrival time. Anything lane j does at
// u >= min(earliest_j, min1+L) posts into lane i at u + delay >= hzn_i —
// beyond i's window. (Transitive chains through further lanes only add
// more hops of L.) Lanes whose next event is below their horizon
// execute concurrently on a worker pool, appending an execution record
// per event and an op per event creation, in order. Events created
// in-window below the horizon are scheduled immediately with provisional
// seqs (provBase + a per-lane counter): within one lane, creation order
// equals the serial creation order restricted to the lane, so
// provisional seqs order correctly against each other and after every
// true seq, and the lane's execution order is the canonical order
// restricted to the lane, by induction over the window. Cross-lane and
// beyond-horizon creations are deferred ops, released only at commit.
//
// Commit. The serial engine assigns seqs at creation, in canonical
// execution order. The commit pass replays exactly that: it repeatedly
// takes the globally (t, seq)-minimal pending item across lanes, where a
// lane's earliest item is its first uncommitted record, else its
// suspended or failed event, else its unexecuted heap head. A record
// commits: its ops receive the next true seqs in creation order and
// deferred ones are pushed into their target lanes. A suspended event
// (see RNG below) is fed. A failed event re-raises its panic — after
// everything canonically earlier has committed, exactly like the serial
// engine. An unexecuted head stalls the pass: committing anything later
// first could assign seqs out of serial creation order (a same-t tie
// between a stalled event's future creation and a later record's
// creation would flip). Stalled records, arenas, and provisional-seq
// bookkeeping persist across windows and commit in a later pass, after
// the stalling lane catches up. Horizons use earliest-uncommitted
// precisely so that a deferred op withheld by a stall can never be
// outrun by its target lane.
//
// RNG. Draws must consume the one global stream in canonical order. A
// process that draws inside a window suspends its lane at the draw
// point; the commit pass, when the suspended event is the global
// minimum, assigns true seqs to the event's creations so far (the serial
// engine assigned them before the draw), draws from the true engine RNG,
// feeds the value, and continues the lane inline to its horizon. A lane
// suspends at its first draw and cannot proceed past it, so each lane
// has at most one pending draw, at its canonical position — the fed
// sequence is exactly the serial draw sequence.
//
// The observable result — per-lane event order, commit order, Rand()
// sequence, process wake order, virtual timestamps — is bit-identical to
// the serial engine for any worker count, which the determinism tests in
// this package and the fuzz harness in internal/harness enforce.
package sim

import (
	"fmt"
	"sync"
)

// provBase offsets provisional in-window seqs above every true seq the
// global counter will ever reach, so pre-window events (true seqs) order
// before in-window creations at the same instant, matching serial order.
const provBase = uint64(1) << 62

// Lane is one partition of the event schedule — all events of one
// simulated node. On a serial engine a Lane is a thin delegate to the
// engine's global schedule, so subsystem code can be written against
// lanes unconditionally. Obtain lanes with Engine.Lane.
type Lane struct {
	eng *Engine
	id  int

	// heap holds the lane's pending events; now is the lane clock (the
	// time of the lane's last executed event). Both persist across
	// windows. The heap never mixes a provisional-seq event and a true-
	// seq event at the same instant: provisional events live below the
	// lane's current horizon, committed arrivals land at or beyond it.
	heap eventHeap
	now  int64

	// Window execution state. win is set by the engine goroutine before
	// workers start and cleared only once the lane is fully committed, so
	// lane executors and process code observe it race-free through the
	// worker handoff.
	win    bool
	hzn    int64 // exclusive horizon of the lane's current window
	pseq   uint64
	nowq   []event
	nqHead int

	// Execution records and creation ops, appended in order; ci and opA
	// are the commit pass's consumption cursors (records committed,
	// ops assigned true seqs). All four persist while the lane has
	// uncommitted state.
	recs []lrec
	ops  []lop
	ci   int
	opA  int

	cur   lrec // open record of the currently executing event
	liveD int  // process exits this window (applied to Engine.live at window end)

	// Failure capture: failVal/failProc hold a panic that escaped a process
	// of this lane (and its name) until dispatch re-raises it, on serial
	// engines too; failed+failRaise hold the re-panic value once the
	// window executor caught it (at the open record cur).
	failVal   any
	failProc  string
	failed    bool
	failRaise any

	// RNG suspension: the lane stopped mid-event at a draw; the commit
	// pass feeds drawVal at the event's canonical position.
	suspended bool
	drawProc  *Proc
	drawSpan  int64
	drawVal   int64
}

// lop records one event creation during a window, in creation order.
// The commit pass assigns seq (the true serial seq) when the creating
// event's record commits; events that did not execute in-window
// (cross-lane or beyond-horizon, inWin=false) are pushed into dst's heap
// then.
type lop struct {
	dst   *Lane
	ev    event
	seq   uint64
	inWin bool
}

// lrec is one executed event: its time, identity, and the ops it created
// (ops[opLo:opHi]). For a pre-window event seq is its true seq; for an
// in-window creation ref points at its creating op (index+1), whose seq
// the commit pass assigns before this record can become a lane's
// earliest item.
type lrec struct {
	t          int64
	seq        uint64
	ref        int32
	opLo, opHi int32
}

// Lane returns lane i, creating delegate lanes up to i as needed. On a
// serial engine (no Parallel call) every Lane method behaves exactly
// like the corresponding Engine method.
func (e *Engine) Lane(i int) *Lane {
	for len(e.lanes) <= i {
		e.lanes = append(e.lanes, &Lane{eng: e, id: len(e.lanes)})
	}
	return e.lanes[i]
}

// ID returns the lane's index.
func (ln *Lane) ID() int { return ln.id }

// parRun is the parallel-mode runtime: a persistent worker pool fed one
// lane per window assignment.
type parRun struct {
	workers int
	work    chan *Lane
	wg      sync.WaitGroup
	started bool
}

// Parallel switches Run to conservative parallel execution on `workers`
// goroutines with the given lookahead: every cross-lane Post must carry
// a delay of at least lookaheadNs (the minimum wire latency). Call after
// creating the engine's lanes and before scheduling anything. workers=1
// still uses the full windowed machinery (useful to validate
// bit-identity without host concurrency). Incompatible with
// SetAfterEvent (the per-event hook is inherently serial).
func (e *Engine) Parallel(workers int, lookaheadNs int64) {
	if workers < 1 {
		workers = 1
	}
	if lookaheadNs <= 0 {
		panic("sim: Parallel needs a positive lookahead")
	}
	if e.afterEvent != nil {
		panic("sim: Parallel is incompatible with SetAfterEvent")
	}
	if len(e.lanes) < 2 {
		panic("sim: Parallel needs at least 2 lanes (create them with Engine.Lane first)")
	}
	if e.minSrc != noSrc || e.nqHead < len(e.nowq) {
		// Events scheduled before this call sit in the global serial
		// queues, which the parallel run loop never drains.
		panic("sim: Parallel must be enabled before scheduling any events")
	}
	e.lookahead = lookaheadNs
	e.par = &parRun{workers: workers}
}

// IsParallel reports whether Parallel has been enabled.
func (e *Engine) IsParallel() bool { return e.par != nil }

// sched is the one scheduling entry point for lane-aware contexts: ln is
// the lane whose code is executing (or being initialized), target the
// lane the event belongs to. Serial engines fall through to the global
// schedule, preserving the serial engine's behavior bit for bit.
func (ln *Lane) sched(target *Lane, delay int64, ev event) {
	e := ln.eng
	if delay < 0 {
		delay = 0
	}
	if e.par != nil && ln.win {
		t := ln.now + delay
		ev.t = t
		if target != ln {
			if delay < e.lookahead {
				panic(fmt.Sprintf("sim: cross-lane post with delay %dns < lookahead %dns (lane %d -> %d)",
					delay, e.lookahead, ln.id, target.id))
			}
			ln.ops = append(ln.ops, lop{dst: target, ev: ev})
			return
		}
		if t >= ln.hzn {
			ln.ops = append(ln.ops, lop{dst: ln, ev: ev})
			return
		}
		// Executes later this window: provisional seq, plus an op entry
		// so the commit pass assigns its true seq in creation order.
		ln.pseq++
		ev.seq = provBase + ln.pseq
		ln.ops = append(ln.ops, lop{dst: ln, ev: ev, inWin: true})
		ev.opRef = int32(len(ln.ops))
		if delay == 0 {
			ln.nowq = append(ln.nowq, ev)
		} else {
			ln.heap.push(ev)
		}
		return
	}
	e.seq++
	ev.seq = e.seq
	if e.par == nil {
		// Serial engine: identical to Engine.At / Engine.wakeAt.
		if delay == 0 {
			ev.t = e.now
			e.nowq = append(e.nowq, ev)
		} else {
			e.pushTimed(delay, ev)
		}
		return
	}
	// Parallel engine between windows (initialization): straight into
	// the target lane's heap with a true seq.
	ev.t = target.now + delay
	target.heap.push(ev)
}

// At schedules fn in this lane after delay nanoseconds. Must be called
// from this lane's own execution context (or before Run).
func (ln *Lane) At(delay int64, fn func()) {
	ln.sched(ln, delay, event{fn: fn})
}

// Post schedules fn in lane dst after delay nanoseconds, called from
// this lane's execution context. Under Parallel, a post to another lane
// must carry a delay of at least the lookahead.
func (ln *Lane) Post(dst *Lane, delay int64, fn func()) {
	ln.sched(dst, delay, event{fn: fn})
}

// Now returns the lane's current virtual time: the engine clock on a
// serial engine, the lane clock under Parallel.
func (ln *Lane) Now() int64 {
	if ln.eng.par != nil {
		return ln.now
	}
	return ln.eng.now
}

// runWindow executes the lane's events below its horizon, in the lane's
// (t, seq) order. It returns with the lane either out of sub-horizon
// events, suspended at an RNG draw, or failed at a panic (the open
// record cur names the faulting event in the latter two cases).
func (ln *Lane) runWindow() {
	defer func() {
		if r := recover(); r != nil {
			ln.failed = true
			ln.failRaise = r
		}
	}()
	for {
		var ev event
		if ln.nqHead < len(ln.nowq) {
			// Same discipline as the serial loop: due heap events precede
			// the now-queue (their seqs are smaller; see engine.go).
			if ln.heap.len() > 0 && ln.heap.a[0].t <= ln.now {
				ev = ln.heap.pop()
			} else {
				ev = ln.nowq[ln.nqHead]
				ln.nowq[ln.nqHead] = event{}
				ln.nqHead++
				if ln.nqHead == len(ln.nowq) {
					ln.nowq = ln.nowq[:0]
					ln.nqHead = 0
				}
			}
		} else if ln.heap.len() > 0 {
			if ln.heap.a[0].t >= ln.hzn {
				return
			}
			ev = ln.heap.pop()
			if ev.t > ln.now {
				ln.now = ev.t
			}
		} else {
			return
		}
		ln.cur = lrec{t: ln.now, seq: ev.seq, ref: ev.opRef, opLo: int32(len(ln.ops))}
		if ev.fn != nil {
			ev.fn()
		} else if ev.gen != 0 {
			ev.p.wakeIf(ev.gen)
		} else {
			ln.eng.dispatch(ev.p)
		}
		if ln.suspended {
			return
		}
		ln.closeRec()
	}
}

func (ln *Lane) closeRec() {
	ln.cur.opHi = int32(len(ln.ops))
	ln.recs = append(ln.recs, ln.cur)
}

// recSeq resolves a record's true seq: pre-window events carry it;
// in-window creations read their creating op, whose seq the commit pass
// assigned when the creator (earlier in the same lane) committed.
func (ln *Lane) recSeq(r *lrec) uint64 {
	if r.ref != 0 {
		return ln.ops[r.ref-1].seq
	}
	return r.seq
}

// assignOps gives ops[opA:hi] the next true seqs, in creation order, and
// releases deferred ones into their target lanes' heaps.
func (ln *Lane) assignOps(hi int) {
	e := ln.eng
	for ; ln.opA < hi; ln.opA++ {
		op := &ln.ops[ln.opA]
		e.seq++
		op.seq = e.seq
		if !op.inWin {
			ev := op.ev
			ev.seq = e.seq
			ev.opRef = 0
			op.dst.heap.push(ev)
		}
	}
}

// feedDraw resolves the lane's pending RNG draw at its canonical
// position: the event's creations so far take their true seqs (the
// serial engine assigned them before the draw), the value comes off the
// true RNG, and the lane continues inline (on the commit goroutine)
// until its window is exhausted or suspends again.
func (ln *Lane) feedDraw() {
	p := ln.drawProc
	ln.assignOps(len(ln.ops))
	ln.drawVal = ln.eng.rng.Int63n(ln.drawSpan)
	ln.suspended = false
	ln.drawProc = nil
	p.next()
	if ln.suspended {
		return // the same event drew again; feed at the next commit step
	}
	if ln.failVal != nil {
		// The process panicked after the draw; no dispatch frame exists
		// to re-raise, so capture it here exactly as dispatch would.
		ln.failed = true
		ln.failRaise = &ProcPanic{Proc: ln.failProc, Value: ln.failVal}
		ln.failVal = nil
		return
	}
	ln.closeRec()
	ln.runWindow()
}

// maybeReset drops the lane's arenas once everything is committed; while
// records, a suspension, or a failure are outstanding the bookkeeping
// (and the lane's window flag) persists into the next round.
func (ln *Lane) maybeReset() {
	if ln.suspended || ln.failed || ln.ci < len(ln.recs) {
		return
	}
	ln.win = false
	ln.pseq = 0
	ln.recs = ln.recs[:0]
	ln.ops = ln.ops[:0]
	ln.ci = 0
	ln.opA = 0
}

// earliest returns the lane's canonically earliest pending item and
// whether one exists. kind: 0 = committable record, 1 = suspended or
// failed event, 2 = unexecuted heap head (a commit stall).
func (ln *Lane) earliest() (t int64, s uint64, kind int, ok bool) {
	if ln.ci < len(ln.recs) {
		r := &ln.recs[ln.ci]
		return r.t, ln.recSeq(r), 0, true
	}
	if ln.suspended || ln.failed {
		return ln.cur.t, ln.recSeq(&ln.cur), 1, true
	}
	if ln.heap.len() > 0 {
		return ln.heap.a[0].t, ln.heap.a[0].seq, 2, true
	}
	return 0, 0, 0, false
}

// runParallel is Run's parallel mode: windowed lane execution with a
// canonical (t, seq) commit pass after every window.
func (e *Engine) runParallel() error {
	par := e.par
	defer func() {
		if par.started {
			close(par.work)
			par.started = false
		}
	}()
	var active []*Lane
	for !e.stopped {
		// Per-lane horizons from the two smallest earliest-uncommitted
		// items (multiset semantics: with a tie at the minimum, min2 ==
		// min1, which is exactly the other tied lane's value).
		const inf = int64(^uint64(0) >> 1)
		min1, min2 := inf, inf
		pending := false
		for _, ln := range e.lanes {
			t, _, _, ok := ln.earliest()
			if !ok {
				continue
			}
			pending = true
			if t < min1 {
				min1, min2 = t, min1
			} else if t < min2 {
				min2 = t
			}
		}
		if !pending {
			break
		}
		active = active[:0]
		for _, ln := range e.lanes {
			t, _, _, ok := ln.earliest()
			if !ok {
				continue
			}
			// A lane's earliest possible future activity is not just its
			// earliest pending item: an idle lane (next own event far in
			// the future, or none at all) can still be handed work by the
			// globally earliest lane's sends, react at min1 + L, and reply.
			// So every other lane's activity bound is clamped to min1 + L
			// before adding this lane's incoming hop. For a non-minimal
			// lane the clamp is moot (the minimum lane itself is among the
			// others), giving hzn = min1 + L; the minimum lane gets
			// min(min2, min1+L) + L — in particular min1 + 2L when every
			// other lane is empty, never an unbounded horizon.
			other := min1
			if t == min1 {
				other = min2
				if c := min1 + e.lookahead; c < other {
					other = c
				}
			}
			hzn := inf
			if other != inf {
				hzn = other + e.lookahead
			}
			// A deferred op the lane targeted at itself (a same-lane
			// creation beyond an earlier window's horizon, withheld until
			// its creating record commits) also caps the horizon: the
			// cross-lane min above bounds what other lanes may still send
			// here, but says nothing about this lane's own withheld work —
			// executing past its arrival time would run the lane's events
			// out of (t, seq) order.
			for k := ln.opA; k < len(ln.ops); k++ {
				if op := &ln.ops[k]; !op.inWin && op.dst == ln && op.ev.t < hzn {
					hzn = op.ev.t
				}
			}
			// A lane executes this round if it has a runnable event below
			// its horizon; suspended and failed lanes wait for the commit
			// pass to feed or re-raise them.
			if !ln.suspended && !ln.failed && ln.heap.len() > 0 && ln.heap.a[0].t < hzn {
				ln.hzn = hzn
				ln.win = true
				active = append(active, ln)
			}
		}
		if len(active) == 1 || par.workers == 1 {
			for _, ln := range active {
				ln.runWindow()
			}
		} else if len(active) > 1 {
			if !par.started {
				work := make(chan *Lane)
				par.work = work
				for w := 0; w < par.workers; w++ {
					go func() {
						for ln := range work {
							ln.runWindow()
							par.wg.Done()
						}
					}()
				}
				par.started = true
			}
			par.wg.Add(len(active))
			for _, ln := range active {
				par.work <- ln
			}
			par.wg.Wait()
		}
		err := e.commitPass()
		for _, ln := range e.lanes {
			e.live += ln.liveD
			ln.liveD = 0
			ln.maybeReset()
		}
		if err != nil {
			return err
		}
	}
	if e.stopped {
		return nil
	}
	if e.live > 0 {
		return e.deadlock()
	}
	return nil
}

// commitPass consumes pending items in canonical (t, seq) order:
// committing records (assigning their creations the next true seqs,
// releasing deferred events), feeding suspended draws, and re-raising
// the canonically first captured panic exactly where the serial engine
// would have. It stalls when the global minimum is an event that has not
// executed yet — committing anything later first would assign seqs out
// of serial creation order.
func (e *Engine) commitPass() error {
	for {
		var best *Lane
		var bt int64
		var bs uint64
		bkind := 0
		for _, ln := range e.lanes {
			t, s, kind, ok := ln.earliest()
			if !ok {
				continue
			}
			if best == nil || t < bt || (t == bt && s < bs) {
				best, bt, bs, bkind = ln, t, s, kind
			}
		}
		if best == nil || bkind == 2 {
			break // nothing pending, or stalled on an unexecuted event
		}
		// Commit-order assertion, across lanes and across rounds: the
		// serial engine consumes items in strictly increasing (t, seq)
		// order, so any regression here — a later round committing
		// something canonically earlier than a past commit, or a
		// same-timestamp pair seated out of seq order — is exactly the
		// cross-lane window bug the parallel engine must exclude.
		// Equality is legitimate: a suspended event is visited at its
		// one (t, seq) once per RNG feed and again when its record
		// commits. Two integer compares per commit; determinism gates
		// run with this always on.
		if bt < e.cmtT || (bt == e.cmtT && bs < e.cmtSeq) {
			panic(fmt.Sprintf("sim: commit order violation: (t=%d seq=%d) after (t=%d seq=%d) on lane %d",
				bt, bs, e.cmtT, e.cmtSeq, best.id))
		}
		e.cmtT, e.cmtSeq = bt, bs
		ln := best
		if bkind == 1 {
			if ln.failed {
				// Canonically first failure: everything the serial engine
				// would have executed before the faulting event has
				// committed; re-raise on Run's caller exactly like dispatch.
				r := ln.failRaise
				ln.failed = false
				ln.failRaise = nil
				panic(r)
			}
			ln.feedDraw()
			continue
		}
		r := &ln.recs[ln.ci]
		ln.ci++
		ln.assignOps(int(r.opHi))
		e.executed++
	}
	if e.budget > 0 && e.executed >= e.budget && !e.stopped {
		// Parallel budget checks are commit-granular: the error reports
		// where the run actually stopped. Deterministic for a given
		// budget and configuration.
		return &BudgetError{Time: e.maxLaneNow(), Executed: e.executed}
	}
	return nil
}

func (e *Engine) maxLaneNow() int64 {
	var max int64
	for _, ln := range e.lanes {
		if ln.now > max {
			max = ln.now
		}
	}
	return max
}
