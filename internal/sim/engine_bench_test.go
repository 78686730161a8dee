package sim

import "testing"

// BenchmarkEventDispatch measures raw event-heap throughput: the upper
// bound on protocol messages per wall-clock second the simulator can
// deliver.
func BenchmarkEventDispatch(b *testing.B) {
	eng := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.At(1, tick)
		}
	}
	eng.At(1, tick)
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSwitch measures a full park/unpark cycle between two
// cooperating processes — the cost of one simulated context switch, paid
// at every page fault and lock transfer.
func BenchmarkProcSwitch(b *testing.B) {
	eng := New(1)
	g := &Gate{}
	turn := 0
	player := func(me, next int) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < b.N; i++ {
				for turn != me {
					g.Wait(p)
				}
				turn = next
				g.Broadcast()
			}
		}
	}
	eng.Spawn("ping", player(0, 1))
	eng.Spawn("pong", player(1, 0))
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSelfResume measures a park whose own dispatch comes next:
// the process executes its wake event and resumes on its own stack, with
// no switch — the cost of Advance with nothing else due.
func BenchmarkProcSelfResume(b *testing.B) {
	eng := New(1)
	eng.Spawn("self", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1)
		}
	})
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGateBroadcast measures waking a crowd of parked processes at
// once — the barrier-release hot path.
func BenchmarkGateBroadcast(b *testing.B) {
	const crowd = 64
	eng := New(1)
	g := &Gate{}
	done := 0
	for i := 0; i < crowd; i++ {
		eng.Spawn("waiter", func(p *Proc) {
			for j := 0; j < b.N; j++ {
				g.Wait(p)
			}
			done++
		})
	}
	eng.Spawn("master", func(p *Proc) {
		for j := 0; j < b.N; j++ {
			for g.Waiting() < crowd {
				p.Advance(1)
			}
			g.Broadcast()
			p.Advance(1)
		}
	})
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	if done != crowd {
		b.Fatalf("%d waiters finished, want %d", done, crowd)
	}
}
