package sim

import "testing"

func TestGateWaitTimeoutTimesOut(t *testing.T) {
	e := New(1)
	var g Gate
	var woken bool
	var at int64
	e.Spawn("w", func(p *Proc) {
		woken = g.WaitTimeout(p, 500)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken {
		t.Fatal("reported woken without a Broadcast")
	}
	if at != 500 {
		t.Fatalf("timed out at %d, want 500", at)
	}
	if g.Waiting() != 0 {
		t.Fatal("stale waiter entry left after timeout")
	}
}

func TestGateWaitTimeoutWoken(t *testing.T) {
	e := New(1)
	var g Gate
	var woken bool
	e.Spawn("w", func(p *Proc) {
		woken = g.WaitTimeout(p, 10_000)
	})
	e.At(100, func() { g.Broadcast() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !woken {
		t.Fatal("broadcast not reported as wake")
	}
}

func TestGateBroadcastAfterTimeoutHarmless(t *testing.T) {
	e := New(1)
	var g Gate
	rounds := 0
	e.Spawn("w", func(p *Proc) {
		g.WaitTimeout(p, 100) // times out
		rounds++
		g.WaitTimeout(p, 10_000) // woken by the late broadcast
		rounds++
	})
	e.At(5_000, func() { g.Broadcast() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if rounds != 2 {
		t.Fatalf("rounds = %d", rounds)
	}
}

func TestMutexTryLock(t *testing.T) {
	e := New(1)
	var m Mutex
	e.Spawn("a", func(p *Proc) {
		if !m.TryLock(p) {
			t.Error("TryLock on free mutex failed")
		}
		p.Advance(100)
		m.Unlock()
	})
	e.Spawn("b", func(p *Proc) {
		p.Advance(10)
		if m.TryLock(p) {
			t.Error("TryLock on held mutex succeeded")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMutexUnlockUnlockedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	var m Mutex
	m.Unlock()
}

func TestFutureDoubleResolvePanics(t *testing.T) {
	e := New(1)
	f := e.NewFuture()
	f.Resolve(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double resolve")
		}
	}()
	f.Resolve(2)
}

func TestEngineRandDeterministic(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 16; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("engine RNG not seed-deterministic")
		}
	}
}

func TestAtNegativeDelayClamped(t *testing.T) {
	e := New(1)
	ran := false
	e.At(-100, func() {
		ran = true
		if e.Now() != 0 {
			t.Errorf("negative delay ran at t=%d", e.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("callback never ran")
	}
}

func TestSemaphoreAvailable(t *testing.T) {
	s := NewSemaphore(3)
	if s.Available() != 3 {
		t.Fatalf("Available = %d", s.Available())
	}
	e := New(1)
	e.Spawn("p", func(p *Proc) {
		s.Acquire(p)
		s.Acquire(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Available() != 1 {
		t.Fatalf("Available after 2 acquires = %d", s.Available())
	}
	s.Release()
	if s.Available() != 2 {
		t.Fatalf("Available after release = %d", s.Available())
	}
}

// TestReleaseSkipsKilledWaiter: a waiter killed while queued has woken
// already (the kill woke it to unwind), so its entry must not take the
// wake a release hands out; the next live waiter gets it. Handing it to
// the dead entry left b asleep and the run in a deadlock.
func TestReleaseSkipsKilledWaiter(t *testing.T) {
	var m Mutex
	s := NewSemaphore(1)
	cases := []struct {
		name   string
		lock   func(*Proc)
		unlock func()
		queued func() int
	}{
		{"Semaphore", s.Acquire, s.Release, func() int { return len(s.queue) }},
		{"Mutex", m.Lock, m.Unlock, func() int { return len(m.queue) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(1)
			var got int64 = -1
			e.Spawn("holder", func(p *Proc) {
				tc.lock(p)
				p.Advance(100)
				tc.unlock()
			})
			a := e.Spawn("a", func(p *Proc) {
				tc.lock(p)
				t.Error("a acquired after it was killed")
			})
			e.Spawn("b", func(p *Proc) {
				tc.lock(p)
				got = p.Now()
				tc.unlock()
			})
			e.At(50, a.Kill)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if got != 100 {
				t.Fatalf("b acquired at t=%d, want 100", got)
			}
			if n := tc.queued(); n != 0 {
				t.Fatalf("%d entries left queued", n)
			}
		})
	}
	if s.Available() != 1 || m.Holder() != nil {
		t.Fatalf("left %d permits and holder %v", s.Available(), m.Holder())
	}
}
