package svm

import (
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
)

// Chaos regressions: deterministic network degradation aimed at the
// protocol windows where lost or late messages historically hid bugs.
// Every run uses honest probe-based failure detection, the online
// invariant auditor, and ends with the application's own
// result check plus a byte-level replica audit.

// chaosCluster builds the 4-node counter workload in FT mode with honest
// detection, the online auditor, and the given chaos configuration.
func chaosCluster(t *testing.T, chaos model.Chaos, algo LockAlgo, body func(*Thread)) *Cluster {
	t.Helper()
	cfg := model.Default()
	cfg.Nodes = 4
	cfg.Detection = model.DetectProbe
	cfg.Chaos = chaos
	cl, err := New(Options{
		Config: cfg, Mode: ModeFT, LockAlgo: algo,
		Pages: 8, Locks: 1, Body: body,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.EnableFlightRecorder(64)
	cl.EnableAuditor()
	return cl
}

func finishChaosRun(t *testing.T, cl *Cluster, iters int) {
	t.Helper()
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if !cl.Finished() {
		t.Fatal("not all threads finished under chaos")
	}
	checkCounter(t, cl, uint64(4*iters))
	verifyReplicaInvariants(t, cl)
	for i := 0; i < 4; i++ {
		if cl.Network().ConfirmedDead(i) {
			t.Fatalf("chaos (not a failure) got node %d confirmed dead", i)
		}
	}
}

// TestChaosBurstAcrossReleasePhases: a total-loss burst window placed to
// span one release's phase-1 / phase-2 boundary. Every diff and ack in
// that window is dropped and must be recovered by retransmission; the
// two-phase commit must neither lose the interval nor apply it twice.
// Pass one records where the boundary falls; pass two drops packets
// across it.
func TestChaosBurstAcrossReleasePhases(t *testing.T) {
	const iters = 8
	clean := chaosCluster(t, model.Chaos{BurstSrc: -1, BurstDst: -1}, LockPolling, counterBody(iters))
	// The virtual times of node 1's third release's phase-1 and phase-2
	// milestones.
	var phase1, phase2 int64
	onEvent(clean, func(e obs.Event) {
		switch {
		case e.Node != 1 || e.Seq != 3:
		case e.Kind == obs.KReleasePhase1 && phase1 == 0:
			phase1 = e.TimeNs
		case e.Kind == obs.KReleasePhase2 && phase2 == 0:
			phase2 = e.TimeNs
		}
	})
	finishChaosRun(t, clean, iters)
	if phase1 == 0 || phase2 <= phase1 {
		t.Fatalf("did not observe the phase boundary: phase1=%d phase2=%d", phase1, phase2)
	}

	const margin = 5_000 // ns on each side of the boundary window
	chaos := model.Chaos{
		Enabled:      true,
		Seed:         31,
		BurstStartNs: phase1 - margin,
		BurstLenNs:   phase2 - phase1 + 2*margin,
		BurstSrc:     -1, BurstDst: -1, // one-shot, all links
	}
	cl := chaosCluster(t, chaos, LockPolling, counterBody(iters))
	finishChaosRun(t, cl, iters)
	if cl.Network().Retransmits == 0 {
		t.Fatal("burst window dropped nothing — boundary not exercised")
	}
}

// TestChaosGrayLockHomeDuringHandoff: the primary home of the NIC-level
// lock runs on a gray (slow) NIC while every thread hammers the lock.
// Grant and handoff messages crawl but must not be mistaken for a failure
// (no false confirmation) and must not corrupt lock state.
func TestChaosGrayLockHomeDuringHandoff(t *testing.T) {
	const iters = 8
	// Learn the lock's primary home from an identically-shaped cluster.
	probe := chaosCluster(t, model.Chaos{BurstSrc: -1, BurstDst: -1}, LockNIC, counterBody(iters))
	home := probe.lockHomes.Primary(0)

	chaos := model.Chaos{
		Enabled:    true,
		Seed:       32,
		GrayNodes:  []int{home},
		GrayFactor: 6,
		BurstSrc:   -1, BurstDst: -1,
	}
	cl := chaosCluster(t, chaos, LockNIC, counterBody(iters))
	finishChaosRun(t, cl, iters)
	if cl.Network().FalseSuspicions > 0 && cl.Network().ConfirmedDead(home) {
		t.Fatal("gray lock home was confirmed dead")
	}
}

// barrierCounterBody interleaves every lock-protected increment with a
// full barrier, so each iteration crosses a master release broadcast.
func barrierCounterBody(iters int) func(*Thread) {
	return func(t *Thread) {
		st := &counterState{}
		t.Setup(st)
		for st.Iter < iters {
			t.Acquire(0)
			v := t.ReadU64(0)
			t.WriteU64(0, v+1)
			st.Iter++
			t.Release(0)
			t.Barrier()
		}
	}
}

// TestChaosJitterAcrossBarrierBroadcast: heavy per-link latency jitter
// while the workload barriers every iteration. The barrier master's
// release broadcast arrives at wildly different times per node; epochs
// must stay aligned and per-sender FIFO must hold (the auditor aborts on
// any ordering violation).
func TestChaosJitterAcrossBarrierBroadcast(t *testing.T) {
	const iters = 6
	chaos := model.Chaos{
		Enabled:  true,
		Seed:     33,
		JitterNs: 150_000, // ~30x the link latency
		BurstSrc: -1, BurstDst: -1,
	}
	cl := chaosCluster(t, chaos, LockPolling, barrierCounterBody(iters))
	finishChaosRun(t, cl, iters)
}
