package sim

import (
	"errors"
	"fmt"
	"testing"
)

// laneApp runs a small cross-lane workload — N node processes that
// advance, draw randomness, and post to each other with wire latency L —
// and returns its observable trace: per-node step logs (virtual times and
// destinations chosen by RNG draws), plus a tail line with the final
// engine state. Per-node logs are lane-local, so they are valid
// observables under the parallel engine; the tail's post-run RNG draw
// pins the canonical draw sequence.
func laneApp(t *testing.T, workers int, nodes, steps int, seed int64) []string {
	t.Helper()
	const L = 8000
	e := New(seed)
	for i := 0; i < nodes; i++ {
		e.Lane(i)
	}
	if workers > 0 {
		e.Parallel(workers, L)
	}
	perNode := make([][]string, nodes)
	inbox := make([]int, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		ln := e.Lane(i)
		e.SpawnOn(ln, fmt.Sprintf("n%d", i), func(p *Proc) {
			for s := 0; s < steps; s++ {
				p.Advance(p.Int63n(5000) + 1)
				dst := (i + 1 + int(p.Int63n(int64(nodes-1)))) % nodes
				to := e.Lane(dst)
				ln.Post(to, L+p.Int63n(2000), func() {
					inbox[dst]++
				})
				perNode[i] = append(perNode[i], fmt.Sprintf("s%d t=%d -> n%d", s, p.Now(), dst))
				p.Advance(1000)
			}
			perNode[i] = append(perNode[i], fmt.Sprintf("done t=%d", p.Now()))
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("run (workers=%d): %v", workers, err)
	}
	var trace []string
	for i, lines := range perNode {
		for _, l := range lines {
			trace = append(trace, fmt.Sprintf("n%d %s", i, l))
		}
	}
	trace = append(trace, fmt.Sprintf("executed=%d rand=%d inbox=%v", e.Events(), e.Rand().Int63(), inbox))
	return trace
}

// TestParallelDeterminism checks that the parallel engine's observable
// trace — per-process timestamps, RNG draw sequence, delivery counts, and
// total executed events — is bit-identical to the serial engine's for
// several worker counts and seeds.
func TestParallelDeterminism(t *testing.T) {
	for _, nodes := range []int{2, 3, 5} {
		for seed := int64(1); seed <= 5; seed++ {
			want := laneApp(t, 0, nodes, 40, seed)
			for _, workers := range []int{1, 2, 4} {
				got := laneApp(t, workers, nodes, 40, seed)
				if len(got) != len(want) {
					t.Fatalf("nodes=%d seed=%d workers=%d: trace length %d != serial %d",
						nodes, seed, workers, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("nodes=%d seed=%d workers=%d: trace[%d] = %q, serial %q",
							nodes, seed, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestParallelHorizonEdges pins the window-boundary cases: an event
// scheduled exactly at the horizon must wait for the next window, a
// zero-delay event created in-window runs in the same window, and
// simultaneous cross-lane posts commit in seq order.
func TestParallelHorizonEdges(t *testing.T) {
	const L = 1000
	cases := []struct {
		name string
		body func(e *Engine, out *[]string)
	}{
		{
			// Lane 1 holds an event exactly at lane 0's head + L — the
			// first instant a cross-lane post from lane 0 can land. The
			// serial order (t ascending, then creation order) must hold.
			name: "event exactly at horizon",
			body: func(e *Engine, out *[]string) {
				l0, l1 := e.Lane(0), e.Lane(1)
				l0.At(0, func() {
					*out = append(*out, "l0@0")
					l0.Post(l1, L, func() { *out = append(*out, "l1@post") })
				})
				l1.At(L, func() { *out = append(*out, "l1@L") })
			},
		},
		{
			// Zero-delay events created during a window execute within it,
			// after every due heap event, in creation order.
			name: "zero-delay now-queue in window",
			body: func(e *Engine, out *[]string) {
				l0, l1 := e.Lane(0), e.Lane(1)
				l0.At(0, func() {
					*out = append(*out, "a")
					l0.At(0, func() { *out = append(*out, "c") })
					l0.At(0, func() { *out = append(*out, "d") })
					*out = append(*out, "b")
				})
				l1.At(3*L, func() { *out = append(*out, "l1") })
			},
		},
		{
			// Two lanes post into a third at the same instant: commit
			// order is creation (seq) order — lane 0's post first, because
			// its creating event has the smaller seq.
			name: "simultaneous cross-lane posts",
			body: func(e *Engine, out *[]string) {
				l0, l1, l2 := e.Lane(0), e.Lane(1), e.Lane(2)
				l0.At(0, func() { l0.Post(l2, L, func() { *out = append(*out, "from0") }) })
				l1.At(0, func() { l1.Post(l2, L, func() { *out = append(*out, "from1") }) })
				l2.At(2*L, func() { *out = append(*out, "l2@2L") })
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := New(7)
			serial.Lane(2)
			var wantOut []string
			tc.body(serial, &wantOut)
			if err := serial.Run(); err != nil {
				t.Fatalf("serial run: %v", err)
			}
			want := fmt.Sprintf("%v", wantOut)
			for _, workers := range []int{1, 2} {
				e := New(7)
				e.Lane(2)
				e.Parallel(workers, L)
				var gotOut []string
				tc.body(e, &gotOut)
				if err := e.Run(); err != nil {
					t.Fatalf("parallel run (workers=%d): %v", workers, err)
				}
				if got := fmt.Sprintf("%v", gotOut); got != want {
					t.Fatalf("workers=%d: order %s, serial %s", workers, got, want)
				}
			}
		})
	}
}

// The horizon-edge cases above write to one shared slice from multiple
// lanes. That is legal only because each case's appends are separated by
// at least the lookahead in virtual time or confined to one lane per
// window — the cases pin commit-order semantics, not a concurrency idiom.

// TestParallelIdleLaneReactivity pins the idle-lane horizon bound: a
// lane whose own next event is far in the future (here lane 1, parked at
// 50000) can still be handed work by an earlier lane and react, so other
// lanes must not race past the reaction's arrival. The requester on lane
// 0 bounces a message off lane 1 (out at +L, reply at +2L) while polling
// a future on a short timeout; if lane 0's horizon wrongly stretched to
// lane 1's parked event, it would burn through timeout wakes far past
// the reply's serial arrival before the bounce could commit and release.
func TestParallelIdleLaneReactivity(t *testing.T) {
	const L = 1000
	run := func(workers int) string {
		e := New(3)
		e.Lane(1)
		if workers > 0 {
			e.Parallel(workers, L)
		}
		l0, l1 := e.Lane(0), e.Lane(1)
		var fut Future
		e.InitFuture(&fut)
		var log string
		e.SpawnOn(l0, "requester", func(p *Proc) {
			p.Advance(5000)
			l0.Post(l1, L, func() {
				l1.Post(l0, L, func() { fut.Resolve(nil) })
			})
			for {
				_, _, ok := p.AwaitTimeout(&fut, 300)
				if ok {
					log += fmt.Sprintf("done@%d", p.Now())
					return
				}
				log += fmt.Sprintf("to@%d ", p.Now())
			}
		})
		l1.At(50000, func() {})
		if err := e.Run(); err != nil {
			t.Fatalf("run (workers=%d): %v", workers, err)
		}
		return log
	}
	want := run(0)
	for _, workers := range []int{1, 2} {
		if got := run(workers); got != want {
			t.Fatalf("workers=%d: trace %q, serial %q", workers, got, want)
		}
	}
}

// TestParallelWithheldSelfOp pins same-lane ordering against deferred
// self-ops: an event a lane schedules for itself beyond its window
// horizon (here the sender-side "outcome" half of each request, modeled
// after a NIC completing its fence accounting one wire latency after the
// transmit) is withheld until its creating record commits, and the lane
// must not meanwhile execute other heap events past the withheld time.
// Two peers run skewed request/reply ping-pong — each request is a
// cross-lane post paired with a same-lane companion at the same arrival
// instant, and the requester polls its reply future on a short timeout,
// interleaving timer wakes with the withheld companions. A horizon that
// ignored the lane's own withheld ops resumes processes late, shifting
// the logged timestamps.
func TestParallelWithheldSelfOp(t *testing.T) {
	const L = 1000
	run := func(workers int) string {
		e := New(9)
		e.Lane(1)
		if workers > 0 {
			e.Parallel(workers, L)
		}
		logs := make([]string, 2)
		outcomes := make([]int, 2)
		for i := 0; i < 2; i++ {
			i := i
			self, peer := e.Lane(i), e.Lane(1-i)
			e.SpawnOn(self, fmt.Sprintf("peer%d", i), func(p *Proc) {
				p.Advance(int64(1 + i*3700))
				for r := 0; r < 12; r++ {
					var fut Future
					e.InitFuture(&fut)
					// Request: delivery to the peer plus a same-lane
					// companion at the same instant (the vmmc outcome
					// shape); the peer's handler replies the same way.
					d := L + int64(r%3)*700
					self.Post(peer, d, func() {
						peer.Post(self, L, func() { fut.Resolve(nil) })
						peer.At(L, func() { outcomes[1-i]++ })
					})
					self.At(d, func() { outcomes[i]++ })
					for {
						_, _, ok := p.AwaitTimeout(&fut, 450)
						if ok {
							break
						}
						logs[i] += fmt.Sprintf("to@%d ", p.Now())
					}
					logs[i] += fmt.Sprintf("r%d@%d ", r, p.Now())
					p.Advance(int64(100 + (r%5)*800))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("run (workers=%d): %v", workers, err)
		}
		return fmt.Sprintf("%s| %s| out=%v", logs[0], logs[1], outcomes)
	}
	want := run(0)
	for _, workers := range []int{1, 2, 4} {
		if got := run(workers); got != want {
			t.Fatalf("workers=%d:\n got %q\nwant %q", workers, got, want)
		}
	}
}

// TestParallelProcPanic checks that a panic in a process under the
// parallel engine surfaces on Run's caller as a ProcPanic naming the
// process, like the serial engine — whether dispatch sees it in the lane's
// window, or the process was last resumed by the commit pass feeding it a
// random draw (Lane.feedDraw), where no dispatch frame is left to raise it.
func TestParallelProcPanic(t *testing.T) {
	cases := []struct {
		name string
		boom func(p *Proc)
	}{
		{"in a window", func(p *Proc) { p.Advance(2000) }},
		{"after a window draw", func(p *Proc) { p.Advance(2000); p.Int63n(10) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(1)
			e.Lane(1)
			e.Parallel(2, 1000)
			e.SpawnOn(e.Lane(0), "ok", func(p *Proc) { p.Advance(5000) })
			e.SpawnOn(e.Lane(1), "boom", func(p *Proc) {
				tc.boom(p)
				panic("exploded")
			})
			defer func() {
				r := recover()
				pp, ok := r.(*ProcPanic)
				if !ok {
					t.Fatalf("recovered %v (%T), want *ProcPanic", r, r)
				}
				if pp.Proc != "boom" || pp.Value != "exploded" {
					t.Fatalf("ProcPanic = {%s %v}", pp.Proc, pp.Value)
				}
			}()
			_ = e.Run()
			t.Fatalf("Run returned without panicking")
		})
	}
}

// TestParallelDeadlock checks deadlock detection across lanes.
func TestParallelDeadlock(t *testing.T) {
	e := New(1)
	e.Lane(1)
	e.Parallel(2, 1000)
	var g Gate
	e.SpawnOn(e.Lane(0), "waiter", func(p *Proc) { g.Wait(p) })
	e.SpawnOn(e.Lane(1), "runner", func(p *Proc) { p.Advance(3000) })
	err := e.Run()
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(d.Procs) != 1 || d.Procs[0] != "waiter" {
		t.Fatalf("blocked procs = %v", d.Procs)
	}
}
