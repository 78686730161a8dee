package svm

import (
	"strings"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
	"ftsvm/internal/sim"
)

// perSlotBody is a falseshare-style workload: each thread owns an 8-byte
// slot and bumps it once per phase, with a barrier between phases. All
// slots share pages, so every phase's release ships diffs. Phase counts
// half-steps, as in apps.FalseShare, so a replay re-issues a suspended
// barrier call.
func perSlotBody(iters int) func(*Thread) {
	return func(th *Thread) {
		st := &barrierState{}
		th.Setup(st)
		for st.Phase < 2*iters {
			if st.Phase%2 == 0 {
				v := th.ReadU64(th.ID() * 8)
				th.Compute(150)
				th.WriteU64(th.ID()*8, v+1)
				st.Phase++
			}
			th.Barrier()
			st.Phase++
		}
	}
}

// TestFailAtBarrierArrivalEpoch is the minimized regression for a
// cluster-wide livelock found by failure-point exploration: kill a node
// exactly at its own barrier arrival. The node's thread migrates and
// replays from a checkpoint whose barrier sequence is one episode
// behind. When this body advanced its phase before the barrier call, the
// migrated thread finished WITHOUT arriving at the destination node's
// final episode, and threads already waiting there had counted it as a
// future arriver; unless every barrier wake re-evaluates whether the
// waiter is now the node's last live arriver, the node never releases,
// no arrival ever reaches the master, and the whole cluster probes
// forever. The body now re-issues the suspended call (perSlotBody), so
// the run must complete with every slot at its full count and every
// thread after the same number of episodes (Cluster.Verify).
func TestFailAtBarrierArrivalEpoch(t *testing.T) {
	const iters = 8
	for _, victim := range []int{1, 2} {
		for _, epoch := range []int64{3, 7} {
			cfg := model.Default()
			cfg.Nodes = 4
			cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1, Body: perSlotBody(iters)})
			if err != nil {
				t.Fatal(err)
			}
			cl.EnableFlightRecorder(64)
			cl.EnableAuditor()
			fired := killOn(cl, obs.KBarrierArrive, victim, epoch)
			// A livelock here would spin forever; bound the run so the
			// regression fails fast instead of hanging the suite.
			cl.Engine().SetEventBudget(2_000_000)
			if err := cl.Run(); err != nil {
				t.Fatalf("victim %d epoch %d: %v", victim, epoch, err)
			}
			if !*fired {
				t.Fatalf("victim %d: barrier.arrive seq %d never fired", victim, epoch)
			}
			if err := cl.Verify(nil); err != nil {
				t.Fatalf("victim %d epoch %d: %v", victim, epoch, err)
			}
			for slot := 0; slot < cfg.Nodes; slot++ {
				if got := cl.PeekU64(slot * 8); got != iters {
					t.Fatalf("victim %d epoch %d: slot %d = %d, want %d", victim, epoch, slot, got, iters)
				}
			}
		}
	}
}

// TestSimultaneousFailurePanicsOnRunCaller: two nodes dying inside one
// detection window is outside the single-failure model (§4.1). The
// refusal is a deterministic panic, and it must surface on Run's caller
// as a recoverable *sim.ProcPanic — the failure explorer depends on
// catching it rather than crashing the process.
func TestSimultaneousFailurePanicsOnRunCaller(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 4
	opt := Options{Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1, Body: counterBody(8)}
	cl, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	cl.Engine().At(2_000_000, func() {
		cl.KillNode(1)
		cl.KillNode(2)
	})
	defer func() {
		r := recover()
		pp, ok := r.(*sim.ProcPanic)
		if !ok {
			t.Fatalf("recovered %v (%T), want *sim.ProcPanic", r, r)
		}
		if !strings.Contains(pp.Error(), "simultaneous") {
			t.Fatalf("panic %q does not name the simultaneous failure", pp.Error())
		}
	}()
	cl.Run()
	t.Fatal("Run completed despite simultaneous failures")
}
