package svm

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ftsvm/internal/model"
)

// TestReleaseConsistencyProperty generates random lock-ordered schedules:
// each thread performs a random sequence of critical sections, and inside
// lock L's section reads the chain value and writes chain+1, also
// recording its observation. Lazy release consistency requires every
// acquirer to observe all writes ordered before it by the lock chain, so
// each lock's final value must equal its total number of critical
// sections — under both protocols and both lock algorithms.
func TestReleaseConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 3 + rng.Intn(3)    // 3..5
		tpn := 1 + rng.Intn(2)      // 1..2 threads per node (SMP shapes)
		locks := 1 + rng.Intn(4)    // 1..4
		sections := 4 + rng.Intn(6) // per thread
		mode := ModeBase
		algo := LockAlgo(rng.Intn(3)) // base may use any lock
		if rng.Intn(2) == 1 {
			mode = ModeFT
			algo = []LockAlgo{LockPolling, LockNIC}[rng.Intn(2)]
		}
		aggregate := rng.Intn(2) == 1
		singlePhase := mode == ModeFT && rng.Intn(3) == 0 // failure-free: safe

		// Pre-generate each thread's lock sequence (checkpoint-stable).
		seqs := make([][]int, nodes*tpn)
		for i := range seqs {
			seqs[i] = make([]int, sections)
			for j := range seqs[i] {
				seqs[i][j] = rng.Intn(locks)
			}
		}

		cfg := model.Default()
		cfg.Nodes = nodes
		cfg.ThreadsPerNode = tpn
		cfg.Seed = seed
		type st struct{ J int }
		monotone := true
		cl, err := New(Options{
			Config: cfg, Mode: mode, LockAlgo: algo,
			Pages: locks + 1, Locks: locks,
			AggregateDiffs: aggregate, UnsafeSinglePhase: singlePhase,
			Body: func(th *Thread) {
				s := &st{}
				th.Setup(s)
				seq := seqs[th.ID()]
				last := make([]uint64, locks)
				for s.J < len(seq) {
					l := seq[s.J]
					th.Acquire(l)
					v := th.ReadU64(l * 4096)
					if v < last[l] {
						monotone = false // chain went backwards: stale read
					}
					last[l] = v + 1
					th.WriteU64(l*4096, v+1)
					s.J++
					th.Release(l)
				}
				th.Barrier()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		if !monotone {
			return false
		}
		// Final chain values: total sections per lock.
		want := make([]uint64, locks)
		for _, seq := range seqs {
			for _, l := range seq {
				want[l]++
			}
		}
		for l := 0; l < locks; l++ {
			if got := cl.PeekU64(l * 4096); got != want[l] {
				t.Logf("seed %d: lock %d chain = %d, want %d (mode=%v algo=%v)",
					seed, l, got, want[l], mode, algo)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseConsistencyUnderFailure is the same chain property with a
// random single failure injected mid-run: post-recovery replay must keep
// every chain exact.
func TestReleaseConsistencyUnderFailure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 4
		locks := 1 + rng.Intn(3)
		sections := 6
		tpn := 1 + rng.Intn(2)
		victim := 1 + rng.Intn(nodes-1)
		killNs := int64(1_000_000 + rng.Intn(20_000_000))

		seqs := make([][]int, nodes*tpn)
		for i := range seqs {
			seqs[i] = make([]int, sections)
			for j := range seqs[i] {
				seqs[i][j] = rng.Intn(locks)
			}
		}

		cfg := model.Default()
		cfg.Nodes = nodes
		cfg.ThreadsPerNode = tpn
		cfg.Seed = seed
		type st struct{ J int }
		cl, err := New(Options{
			Config: cfg, Mode: ModeFT,
			Pages: locks + 1, Locks: locks,
			Body: func(th *Thread) {
				s := &st{}
				th.Setup(s)
				seq := seqs[th.ID()]
				for s.J < len(seq) {
					l := seq[s.J]
					th.Acquire(l)
					v := th.ReadU64(l * 4096)
					th.WriteU64(l*4096, v+1)
					s.J++
					th.Release(l)
				}
				th.Barrier()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		cl.Engine().At(killNs, func() { cl.KillNode(victim) })
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		if err := cl.Verify(nil); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want := make([]uint64, locks)
		for _, seq := range seqs {
			for _, l := range seq {
				want[l]++
			}
		}
		for l := 0; l < locks; l++ {
			if got := cl.PeekU64(l * 4096); got != want[l] {
				t.Logf("seed %d: lock %d chain = %d, want %d (victim %d at %dns)",
					seed, l, got, want[l], victim, killNs)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestBarrierPhasePropertyRandomShapes runs the write-slot/read-all
// barrier exchange over random cluster shapes.
func TestBarrierPhasePropertyRandomShapes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 2 + rng.Intn(5)
		tpn := 1 + rng.Intn(2)
		rounds := 1 + rng.Intn(3)
		nthreads := nodes * tpn
		mode := Mode(rng.Intn(2))

		cfg := model.Default()
		cfg.Nodes = nodes
		cfg.ThreadsPerNode = tpn
		cfg.Seed = seed
		type st struct {
			Phase   int
			Arrived bool
		}
		ok := true
		cl, err := New(Options{
			Config: cfg, Mode: mode, Pages: nthreads + 1, Locks: 1,
			Body: func(th *Thread) {
				s := &st{}
				th.Setup(s)
				for s.Phase < rounds*2 {
					if !s.Arrived {
						if s.Phase%2 == 0 {
							th.WriteU64(th.ID()*4096, uint64(1000*s.Phase+th.ID()))
						} else {
							for i := 0; i < nthreads; i++ {
								got := th.ReadU64(i * 4096)
								if got != uint64(1000*(s.Phase-1)+i) {
									ok = false
								}
							}
						}
						s.Arrived = true
					}
					th.Barrier()
					s.Arrived = false
					s.Phase++
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Logf("seed %d: stale read (nodes=%d tpn=%d mode=%v)", seed, nodes, tpn, mode)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseUnheldLockPanics(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 2
	cl, err := New(Options{
		Config: cfg, Mode: ModeBase, Pages: 1, Locks: 1,
		Body: func(th *Thread) {
			if th.ID() == 0 {
				defer func() {
					if recover() == nil {
						t.Error("Release of unheld lock did not panic")
					}
				}()
				th.Release(0)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = cl.Run() // thread 0 unwinds; engine may report it as blocked
}

func TestOutOfRangeAddressPanics(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 2
	cl, err := New(Options{
		Config: cfg, Mode: ModeBase, Pages: 1, Locks: 1,
		Body: func(th *Thread) {
			if th.ID() == 0 {
				defer func() {
					if recover() == nil {
						t.Error("out-of-range access did not panic")
					}
				}()
				th.ReadU64(1 << 30)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = cl.Run()
}

func TestNewValidation(t *testing.T) {
	cfg := model.Default()
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"no body", func(o *Options) { o.Body = nil }},
		{"no pages", func(o *Options) { o.Pages = 0 }},
		{"one node", func(o *Options) { o.Config.Nodes = 1 }},
		{"ft queue lock", func(o *Options) { o.Mode = ModeFT; o.LockAlgo = LockQueue }},
	}
	for _, c := range cases {
		opt := Options{Config: cfg, Pages: 1, Body: func(*Thread) {}}
		c.mut(&opt)
		if _, err := New(opt); err == nil {
			t.Errorf("%s: New accepted invalid options", c.name)
		}
	}
}

func TestModeAndLockStrings(t *testing.T) {
	if ModeBase.String() != "base" || ModeFT.String() != "extended" {
		t.Fatal("Mode.String wrong")
	}
	if LockPolling.String() != "polling" || LockQueue.String() != "queue" {
		t.Fatal("LockAlgo.String wrong")
	}
	for _, c := range Components() {
		if c.String() == "" || c.String() == fmt.Sprintf("Component(%d)", int(c)) {
			t.Fatalf("component %d has no name", int(c))
		}
	}
}

func TestPeekBytesCrossPage(t *testing.T) {
	cl := runCluster(t, ModeFT, 2, 1, 2, 1, func(th *Thread) {
		th.Setup(&counterState{})
		if th.ID() == 0 {
			for i := 0; i < 16; i++ {
				th.WriteU64(4088+8*i, uint64(i)) // straddles the page boundary
			}
		}
		th.Barrier()
	})
	got := cl.PeekBytes(4088, 128)
	for i := 0; i < 16; i++ {
		v := uint64(got[8*i]) | uint64(got[8*i+1])<<8
		if v != uint64(i) {
			t.Fatalf("word %d = %d", i, v)
		}
	}
}
