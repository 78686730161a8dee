package svm

import (
	"fmt"
	"testing"

	"ftsvm/internal/model"
)

// runCluster builds and runs a cluster with the given shape and body,
// failing the test on any simulation error.
func runCluster(t *testing.T, mode Mode, nodes, tpn, pages, locks int, body func(*Thread)) *Cluster {
	t.Helper()
	cfg := model.Default()
	cfg.Nodes = nodes
	cfg.ThreadsPerNode = tpn
	opt := Options{
		Config: cfg,
		Mode:   mode,
		Pages:  pages,
		Locks:  locks,
		Body:   body,
	}
	cl, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Verify(nil); err != nil {
		t.Fatal(err)
	}
	return cl
}

// counterState is the canonical resumable state for the shared-counter
// body.
type counterState struct {
	Iter int
}

// counterBody increments a shared counter under lock 0, iters times per
// thread. The resumable-state contract: st.Iter is advanced *before*
// Release, so the point-B checkpoint taken inside Release reflects the
// completed iteration and a replay never double-applies it.
func counterBody(iters int) func(*Thread) {
	return func(t *Thread) {
		st := &counterState{}
		t.Setup(st)
		for st.Iter < iters {
			t.Acquire(0)
			v := t.ReadU64(0)
			t.Compute(200)
			t.WriteU64(0, v+1)
			st.Iter++
			t.Release(0)
		}
		t.Barrier()
	}
}

func checkCounter(t *testing.T, cl *Cluster, want uint64) {
	t.Helper()
	// Read the final value out of the primary home's authoritative copy.
	home := cl.pageHomes.Primary(0)
	pg := cl.nodes[home].pt.page(0)
	var buf []byte
	if cl.opt.Mode == ModeFT {
		buf = pg.committed
	} else {
		buf = pg.working
	}
	got := uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 | uint64(buf[3])<<24 |
		uint64(buf[4])<<32 | uint64(buf[5])<<40 | uint64(buf[6])<<48 | uint64(buf[7])<<56
	if got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

func TestSharedCounterBasePolling(t *testing.T) {
	cl := runCluster(t, ModeBase, 4, 1, 8, 1, counterBody(10))
	checkCounter(t, cl, 40)
}

func TestSharedCounterBaseQueueLock(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 4
	opt := Options{Config: cfg, Mode: ModeBase, LockAlgo: LockQueue, Pages: 8, Locks: 1, Body: counterBody(10)}
	cl, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	checkCounter(t, cl, 40)
}

func TestSharedCounterBaseNICLock(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 4
	opt := Options{Config: cfg, Mode: ModeBase, LockAlgo: LockNIC, Pages: 8, Locks: 1, Body: counterBody(10)}
	cl, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	checkCounter(t, cl, 40)
}

func TestSharedCounterFTNICLock(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 4
	opt := Options{Config: cfg, Mode: ModeFT, LockAlgo: LockNIC, Pages: 8, Locks: 1, Body: counterBody(10)}
	cl, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	checkCounter(t, cl, 40)
}

func TestSharedCounterFT(t *testing.T) {
	cl := runCluster(t, ModeFT, 4, 1, 8, 1, counterBody(10))
	checkCounter(t, cl, 40)
}

func TestSharedCounterFTSMP(t *testing.T) {
	cl := runCluster(t, ModeFT, 4, 2, 8, 1, counterBody(5))
	checkCounter(t, cl, 40)
}

func TestSharedCounterBaseSMP(t *testing.T) {
	cl := runCluster(t, ModeBase, 4, 2, 8, 1, counterBody(5))
	checkCounter(t, cl, 40)
}

// barrierState drives the phase-exchange body.
type barrierState struct {
	Phase int
}

// TestBarrierPropagation has every thread write its own slot, barrier,
// then verify it can read everyone's slot — for several rounds.
func TestBarrierPropagation(t *testing.T) {
	for _, mode := range []Mode{ModeBase, ModeFT} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			const rounds = 3
			nthreads := 4
			var fail error
			body := func(th *Thread) {
				st := &barrierState{}
				th.Setup(st)
				for ; st.Phase < rounds; st.Phase++ {
					th.WriteU64(th.ID()*8, uint64(1000*st.Phase+th.ID()))
					th.Barrier()
					for i := 0; i < nthreads; i++ {
						got := th.ReadU64(i * 8)
						want := uint64(1000*st.Phase + i)
						if got != want && fail == nil {
							fail = fmt.Errorf("phase %d: thread %d read slot %d = %d, want %d",
								st.Phase, th.ID(), i, got, want)
						}
					}
					th.Barrier()
				}
			}
			runCluster(t, mode, 4, 1, 8, 1, body)
			if fail != nil {
				t.Fatal(fail)
			}
		})
	}
}

// TestFalseSharing has all threads write disjoint words of the SAME page
// before a barrier; everyone must see the union afterwards (multiple
// writers).
func TestFalseSharing(t *testing.T) {
	for _, mode := range []Mode{ModeBase, ModeFT} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			nthreads := 4
			var fail error
			body := func(th *Thread) {
				st := &barrierState{}
				th.Setup(st)
				// All slots live in page 0 (offsets 0..31).
				th.WriteU32(th.ID()*4, uint32(100+th.ID()))
				th.Barrier()
				for i := 0; i < nthreads; i++ {
					got := th.ReadU32(i * 4)
					if got != uint32(100+i) && fail == nil {
						fail = fmt.Errorf("thread %d read slot %d = %d", th.ID(), i, got)
					}
				}
				th.Barrier()
			}
			runCluster(t, mode, 4, 1, 4, 1, body)
			if fail != nil {
				t.Fatal(fail)
			}
		})
	}
}

// TestLockPairwisePropagation checks the classic release->acquire
// visibility chain across distinct pages and nodes.
func TestLockPairwisePropagation(t *testing.T) {
	for _, mode := range []Mode{ModeBase, ModeFT} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			var fail error
			body := func(th *Thread) {
				st := &counterState{}
				th.Setup(st)
				const iters = 20
				for ; st.Iter < iters; st.Iter++ {
					th.Acquire(0)
					seq := th.ReadU64(0)
					// Writer of step k records k at page k%3+1.
					pageAddr := (int(seq)%3 + 1) * 4096
					prev := th.ReadU64(pageAddr)
					if prev > seq && fail == nil {
						fail = fmt.Errorf("stale read: page value %d > seq %d", prev, seq)
					}
					th.WriteU64(pageAddr, seq)
					th.WriteU64(0, seq+1)
					th.Release(0)
					th.Compute(500)
				}
				th.Barrier()
			}
			runCluster(t, mode, 4, 1, 8, 1, body)
			if fail != nil {
				t.Fatal(fail)
			}
		})
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() int64 {
		cl := runCluster(t, ModeFT, 4, 2, 8, 1, counterBody(5))
		return cl.ExecTime()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic exec time: %d vs %d", a, b)
	}
	if a <= 0 {
		t.Fatal("zero exec time")
	}
}

// TestFTOverheadPositive: the extended protocol must cost more than the
// base protocol on the same workload (the paper's 20-100% overhead band,
// loosely).
func TestFTOverheadPositive(t *testing.T) {
	base := runCluster(t, ModeBase, 4, 1, 8, 1, counterBody(10)).ExecTime()
	ft := runCluster(t, ModeFT, 4, 1, 8, 1, counterBody(10)).ExecTime()
	if ft <= base {
		t.Fatalf("extended (%d ns) not slower than base (%d ns)", ft, base)
	}
}

func TestBreakdownComponentsAccumulate(t *testing.T) {
	cl := runCluster(t, ModeFT, 4, 1, 8, 1, counterBody(10))
	bd := cl.AvgBreakdown()
	if bd.Comp[CompCompute] <= 0 {
		t.Fatal("no compute time recorded")
	}
	if bd.Comp[CompDiff] <= 0 {
		t.Fatal("no diff time recorded in FT mode")
	}
	if bd.Comp[CompCheckpoint] <= 0 {
		t.Fatal("no checkpoint time recorded in FT mode")
	}
	if bd.Comp[CompBarrier] <= 0 {
		t.Fatal("no barrier time recorded")
	}
	c4, d4, l4, b4 := bd.FourWay()
	sixC, sixD, sixS, sixDf, sixP, sixK := bd.SixWay()
	sum4 := c4 + d4 + l4 + b4
	sum6 := sixC + sixD + sixS + sixDf + sixP + sixK
	if sum4 != bd.Total() || sum6 != bd.Total() {
		t.Fatalf("breakdown folds disagree: 4way=%d 6way=%d total=%d", sum4, sum6, bd.Total())
	}
}

func TestBaseHasNoCheckpointTime(t *testing.T) {
	cl := runCluster(t, ModeBase, 4, 1, 8, 1, counterBody(10))
	bd := cl.AvgBreakdown()
	if bd.Comp[CompCheckpoint] != 0 {
		t.Fatalf("base protocol recorded checkpoint time %d", bd.Comp[CompCheckpoint])
	}
}

// TestLossyNetwork runs the shared counter over a link that drops every
// 5th packet once: VMMC's retransmission must keep the protocols exact.
func TestLossyNetwork(t *testing.T) {
	for _, mode := range []Mode{ModeBase, ModeFT} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := model.Default()
			cfg.Nodes = 4
			cl, err := New(Options{Config: cfg, Mode: mode, Pages: 8, Locks: 1, Body: counterBody(8)})
			if err != nil {
				t.Fatal(err)
			}
			cl.Network().SetDropEveryNth(5)
			if err := cl.Run(); err != nil {
				t.Fatal(err)
			}
			checkCounter(t, cl, 32)
			if cl.Network().Retransmits == 0 {
				t.Fatal("no retransmissions happened; test ineffective")
			}
		})
	}
}

// TestLossyNetworkWithFailure combines transient drops with a real
// fail-stop: retransmission noise must not confuse failure detection.
func TestLossyNetworkWithFailure(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 4
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1, Body: counterBody(8)})
	if err != nil {
		t.Fatal(err)
	}
	cl.Network().SetDropEveryNth(7)
	cl.Engine().At(3_000_000, func() { cl.KillNode(2) })
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	checkCounter(t, cl, 32)
	verifyReplicaInvariants(t, cl)
}

// TestThreadAPIBasics covers the scalar round trips and identity helpers.
func TestThreadAPIBasics(t *testing.T) {
	var nodeID, nthreads int
	var f64ok, u32ok, resumed bool
	var now0, now1 int64
	runCluster(t, ModeBase, 2, 1, 2, 1, func(th *Thread) {
		resumed = th.Setup(&counterState{})
		if th.ID() == 0 {
			nodeID = th.NodeID()
			nthreads = th.NThreads()
			now0 = th.Now()
			th.WriteF64(128, 3.25)
			f64ok = th.ReadF64(128) == 3.25
			th.WriteU32(256, 0xDEADBEEF)
			u32ok = th.ReadU32(256) == 0xDEADBEEF
			th.Compute(1000)
			now1 = th.Now()
		}
		th.Barrier()
	})
	if resumed {
		t.Fatal("fresh thread reported resumed")
	}
	if nodeID != 0 || nthreads != 2 {
		t.Fatalf("identity: node %d, threads %d", nodeID, nthreads)
	}
	if !f64ok || !u32ok {
		t.Fatal("scalar round trips failed")
	}
	if now1 <= now0 {
		t.Fatal("Now did not advance with Compute")
	}
}

// TestRangeOpsCrossPages round-trips slices spanning several pages.
func TestRangeOpsCrossPages(t *testing.T) {
	runCluster(t, ModeFT, 2, 1, 4, 1, func(th *Thread) {
		th.Setup(&counterState{})
		if th.ID() == 0 {
			src := make([]float64, 1024) // 8 KB: spans 3 pages from offset 100*8
			for i := range src {
				src[i] = float64(i) * 1.5
			}
			th.WriteF64s(800, src)
			dst := make([]float64, 1024)
			th.ReadF64s(800, dst)
			for i := range dst {
				if dst[i] != src[i] {
					t.Errorf("f64 slot %d: %g != %g", i, dst[i], src[i])
					break
				}
			}
			u := make([]uint32, 2000)
			for i := range u {
				u[i] = uint32(i * 7)
			}
			th.WriteU32s(8192, u)
			v := make([]uint32, 2000)
			th.ReadU32s(8192, v)
			for i := range v {
				if v[i] != u[i] {
					t.Errorf("u32 slot %d: %d != %d", i, v[i], u[i])
					break
				}
			}
		}
		th.Barrier()
	})
}

// TestAppSuiteDeterminism: two runs of the same seed produce identical
// virtual times for every workload (cheap smoke of the whole stack's
// determinism).
func TestExecTimePositiveAndDeterministic(t *testing.T) {
	run := func() int64 {
		return runCluster(t, ModeFT, 3, 2, 6, 2, counterBody(6)).ExecTime()
	}
	a, b := run(), run()
	if a != b || a <= 0 {
		t.Fatalf("exec times %d vs %d", a, b)
	}
}
