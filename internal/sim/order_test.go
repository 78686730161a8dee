package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The run loop's contract is that events execute in (t, seq) order. Run
// takes each one from whichever of three kinds of queue holds it — the
// now-queue, a constant-delay fifo, the heap — on the strength of an
// argument about how seqs relate across them (engine.go). This file holds
// that argument to a reference that needs none: every pending event in one
// slice kept sorted by (t, seq), from which the next event is always the
// first.

// refEvent is one pending event as the reference knows it. id names the
// test callback, or is 0 for an event the engine made itself (a process
// dispatch). delay is what the event was scheduled with.
type refEvent struct {
	t     int64
	seq   uint64
	id    int
	delay int64
}

func refOrder(a, b refEvent) int {
	return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.seq, b.seq))
}

// orderRun drives one engine with a seeded random program and checks it
// against the reference after every event.
type orderRun struct {
	eng *Engine
	rng *rand.Rand // the program's own source: the engine's must stay untouched

	pending  []refEvent          // the reference: every pending event, sorted
	explicit map[uint64]struct{} // seqs the program registered since the last sync
	synced   uint64              // every seq up to here is in pending or has executed
	steps    int64               // events the reference has executed
	executed []refEvent          // in order
	got      []refEvent          // afterEvent's scratch
	nextID   int

	// What the program exercised: events through the heap, and fifos that
	// drained and took another delay value.
	heaped, rekeyed int
	keyed           [numFifos]int64

	delays  []int64 // the constant delay values
	toMake  int     // events the program may still create
	stopAt  int64   // the first program event from this one on calls Stop; 0 for none
	stopped int64   // the event that did
	futs    []*Future
	gates   []*Gate
	procs   []*Proc
	failure error
}

func (r *orderRun) failf(format string, a ...any) {
	if r.failure == nil {
		r.failure = fmt.Errorf("after %d events, t=%d: %s", r.steps, r.eng.now, fmt.Sprintf(format, a...))
		r.eng.Stop()
	}
}

// register records an event the program itself scheduled, whose delay it
// knows; the engine gave it seq.
func (r *orderRun) register(delay int64, seq uint64, id int) {
	ev := refEvent{t: r.eng.now + max(delay, 0), seq: seq, id: id, delay: max(delay, 0)}
	i, _ := slices.BinarySearchFunc(r.pending, ev, refOrder)
	r.pending = slices.Insert(r.pending, i, ev)
	r.explicit[seq] = struct{}{}
}

// sync accounts for the events the engine created on its own since the
// last call: every one is a process dispatch, scheduled with zero delay at
// the current instant (SpawnOn, wakeIf).
func (r *orderRun) sync() {
	for s := r.synced + 1; s <= r.eng.seq; s++ {
		if _, ok := r.explicit[s]; ok {
			delete(r.explicit, s)
			continue
		}
		ev := refEvent{t: r.eng.now, seq: s}
		i, _ := slices.BinarySearchFunc(r.pending, ev, refOrder)
		r.pending = slices.Insert(r.pending, i, ev)
	}
	r.synced = r.eng.seq
}

// delay draws a delay: zero, one of the constants, or a random value.
func (r *orderRun) delay() int64 {
	switch k := r.rng.Intn(20); {
	case k == 0:
		return -3 // clamped to zero
	case k < 5:
		return 0
	case k < 15:
		return r.delays[r.rng.Intn(len(r.delays))]
	default:
		return 1 + r.rng.Int63n(20000)
	}
}

// at schedules a program event through one of the three entry points.
func (r *orderRun) at(ln *Lane) {
	if r.toMake <= 0 {
		return
	}
	r.toMake--
	r.nextID++
	id, d := r.nextID, r.delay()
	var seq uint64
	fn := func() {
		if len(r.pending) == 0 || r.pending[0].seq != seq || r.pending[0].id != id {
			r.failf("event id %d seq %d ran, the reference's pending events are %v", id, seq, r.pending)
			return
		}
		r.body(ln)
	}
	switch r.rng.Intn(3) {
	case 0:
		r.eng.At(d, fn)
	case 1:
		ln.At(d, fn)
	default:
		ln.Post(r.eng.Lane(r.rng.Intn(4)), d, fn)
	}
	seq = r.eng.seq
	r.register(d, seq, id)
}

// body is what a program event does: schedule more events, and wake
// processes from event context.
func (r *orderRun) body(ln *Lane) {
	if r.stopAt > 0 && r.stopped == 0 && r.steps+1 >= r.stopAt {
		r.stopped = r.steps + 1
		r.eng.Stop()
	}
	for n := r.rng.Intn(4); n > 0; n-- {
		r.at(ln)
	}
	switch r.rng.Intn(6) {
	case 0:
		if f := r.futs[r.rng.Intn(len(r.futs))]; !f.Done() {
			f.Resolve(nil)
		}
	case 1:
		r.gates[r.rng.Intn(len(r.gates))].Broadcast()
	case 2:
		if r.rng.Intn(40) == 0 {
			r.procs[r.rng.Intn(len(r.procs))].Kill()
		}
	}
}

// proc is a process body: timed sleeps and timed waits that race with the
// resolves and broadcasts of body, and events scheduled from process
// context. Each wait's wake event is registered before the call parks.
func (r *orderRun) proc(p *Proc) {
	for r.toMake > 0 && r.failure == nil {
		d := r.delay()
		t0 := p.Now()
		switch r.rng.Intn(4) {
		case 0:
			r.toMake--
			r.register(d, r.eng.seq+1, 0)
			p.Advance(d)
			if p.Now() != t0+max(d, 0) {
				r.failf("%s: Advance(%d) at %d returned at %d", p.Name(), d, t0, p.Now())
			}
		case 1:
			i := r.rng.Intn(len(r.futs))
			if r.futs[i].Done() {
				r.futs[i] = r.eng.NewFuture()
			}
			r.toMake--
			r.register(d, r.eng.seq+1, 0)
			if _, _, ok := p.AwaitTimeout(r.futs[i], d); !ok && p.Now() != t0+max(d, 0) {
				r.failf("%s: AwaitTimeout(%d) at %d timed out at %d", p.Name(), d, t0, p.Now())
			}
		case 2:
			r.toMake--
			r.register(d, r.eng.seq+1, 0)
			if !r.gates[r.rng.Intn(len(r.gates))].WaitTimeout(p, d) && p.Now() != t0+max(d, 0) {
				r.failf("%s: WaitTimeout(%d) at %d timed out at %d", p.Name(), d, t0, p.Now())
			}
		default:
			r.at(p.Lane())
		}
	}
}

// afterEvent is the engine's event-boundary hook: the reference executes
// its first event, and then the engine's queues must hold exactly what the
// reference holds.
func (r *orderRun) afterEvent() {
	if r.failure != nil {
		return
	}
	e := r.eng
	if len(r.pending) == 0 {
		r.failf("the engine executed an event, the reference has none pending")
		return
	}
	head := r.pending[0]
	r.pending = r.pending[1:]
	r.steps++
	r.executed = append(r.executed, head)
	if e.Events() != r.steps {
		r.failf("Events() = %d, the reference has executed %d", e.Events(), r.steps)
	}
	if e.now != head.t {
		r.failf("now = %d after the event due at %d", e.now, head.t)
	}
	r.sync()

	// The engine's pending events, from all three kinds of queue. Had Run
	// executed anything but the reference's first event, that event would
	// still be here.
	got := r.got[:0]
	r.heaped += len(e.events.a)
	for _, ev := range e.events.a {
		got = append(got, refEvent{t: ev.t, seq: ev.seq})
	}
	for _, ev := range e.nowq[e.nqHead:] {
		got = append(got, refEvent{t: ev.t, seq: ev.seq})
	}
	for i := range e.fifos {
		q := &e.fifos[i]
		if (q.n > 0) != (e.fifoMask&(1<<i) != 0) {
			r.failf("fifo %d holds %d events, fifoMask %08b", i, q.n, e.fifoMask)
		}
		if q.n > 0 && q.delay != r.keyed[i] {
			if r.keyed[i] != 0 {
				r.rekeyed++
			}
			r.keyed[i] = q.delay
		}
		for k := 0; k < q.n; k++ {
			ev := q.buf[(q.head+k)&(len(q.buf)-1)]
			// The invariant the order argument rests on: one delay value,
			// and so (t, seq) order, from head to tail.
			if j, ok := slices.BinarySearchFunc(r.pending, refEvent{t: ev.t, seq: ev.seq}, refOrder); ok && r.pending[j].delay != q.delay {
				r.failf("fifo %d holds delay %d and an event scheduled with delay %d", i, q.delay, r.pending[j].delay)
			}
			if k > 0 && refOrder(got[len(got)-1], refEvent{t: ev.t, seq: ev.seq}) >= 0 {
				r.failf("fifo %d is out of order at position %d", i, k)
			}
			got = append(got, refEvent{t: ev.t, seq: ev.seq})
		}
	}
	r.got = got
	slices.SortFunc(got, refOrder)
	if !slices.EqualFunc(got, r.pending, func(a, b refEvent) bool { return a.t == b.t && a.seq == b.seq }) {
		r.failf("pending events differ after (t=%d seq=%d id=%d):\nengine    %v\nreference %v", head.t, head.seq, head.id, got, r.pending)
	}

	// The cached minimum over the timed sources.
	i := slices.IndexFunc(r.pending, func(ev refEvent) bool { return ev.delay > 0 })
	switch {
	case i < 0 && e.minSrc != noSrc:
		r.failf("minSrc = %d with no timed event pending", e.minSrc)
	case i >= 0 && (e.minSrc == noSrc || e.minT != r.pending[i].t):
		r.failf("minSrc = %d minT = %d, the first timed event is due at %d", e.minSrc, e.minT, r.pending[i].t)
	}
}

// collidingDelay returns the smallest delay other than d that maps to d's
// fifo.
func collidingDelay(d int64) int64 {
	for c := int64(1); ; c++ {
		if c != d && fifoIndex(c) == fifoIndex(d) {
			return c
		}
	}
}

func newOrderRun(seed int64) *orderRun {
	r := &orderRun{
		eng:      New(seed),
		rng:      rand.New(rand.NewSource(seed)),
		explicit: map[uint64]struct{}{},
		toMake:   400 + int(seed%7)*200,
	}
	// The wire latency and the heartbeat timeout of the default model, a
	// delay that shares the wire latency's fifo (so that fifo is refused,
	// drained and re-keyed), one that shares the timeout's, and 1.
	r.delays = []int64{8000, collidingDelay(8000), 2000000, collidingDelay(2000000), 1}
	for i := 0; i < 3; i++ {
		r.futs = append(r.futs, r.eng.NewFuture())
		r.gates = append(r.gates, &Gate{})
	}
	r.eng.SetAfterEvent(r.afterEvent)
	for i := 0; i < 4; i++ {
		r.procs = append(r.procs, r.eng.SpawnOn(r.eng.Lane(i), fmt.Sprintf("p%d", i), r.proc))
	}
	for i := 0; i < 8; i++ {
		r.at(r.eng.Lane(i % 4))
	}
	r.sync()
	return r
}

// TestEventOrderDifferential runs seeded random programs to completion, to
// a Stop in the middle and into an event budget, and requires the engine to
// agree with the sorted-slice reference at every event boundary.
func TestEventOrderDifferential(t *testing.T) {
	if a, b := int64(8000), collidingDelay(8000); fifoIndex(a) != fifoIndex(b) || a == b {
		t.Fatalf("delays %d and %d do not share a fifo", a, b)
	}
	seeds := int64(150)
	if testing.Short() {
		seeds = 30
	}
	var events int64
	var heaped, rekeyed int
	for seed := int64(1); seed <= seeds; seed++ {
		r := newOrderRun(seed)
		var budget int64
		switch seed % 3 {
		case 1:
			r.stopAt = 50 + seed
		case 2:
			budget = 50 + seed
			r.eng.SetEventBudget(budget)
		}
		err := r.eng.Run()
		if r.failure != nil {
			t.Fatalf("seed %d: %v", seed, r.failure)
		}
		switch {
		case r.stopped > 0:
			if err != nil || r.steps != r.stopped || len(r.pending) == 0 {
				t.Fatalf("seed %d: Stop inside event %d: Run returned %v after %d events, %d pending", seed, r.stopped, err, r.steps, len(r.pending))
			}
		case budget > 0:
			var be *BudgetError
			if !errors.As(err, &be) || be.Executed != budget || r.steps != budget {
				t.Fatalf("seed %d: budget %d: Run returned %v after %d events", seed, budget, err, r.steps)
			}
		default:
			if err != nil || len(r.pending) != 0 {
				t.Fatalf("seed %d: Run returned %v with %d events pending in the reference", seed, err, len(r.pending))
			}
		}
		if r.eng.Events() != r.steps {
			t.Fatalf("seed %d: Events() = %d, the reference executed %d", seed, r.eng.Events(), r.steps)
		}
		if !slices.IsSortedFunc(r.executed, refOrder) {
			t.Fatalf("seed %d: executed sequence is not in (t, seq) order", seed)
		}
		events += r.steps
		heaped += r.heaped
		rekeyed += r.rekeyed
	}
	if heaped == 0 || rekeyed == 0 {
		t.Fatalf("%d events: %d heap entries seen, %d fifos re-keyed: the programs did not exercise both", events, heaped, rekeyed)
	}
	t.Logf("%d events, %d heap entries seen at boundaries, %d fifo re-keyings", events, heaped, rekeyed)
}
