package svm

import (
	"slices"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
)

// homedCounterBody increments the word at addr under lock 0.
func homedCounterBody(addr, iters int) func(*Thread) {
	return func(t *Thread) {
		st := &counterState{}
		t.Setup(st)
		for st.Iter < iters {
			t.Acquire(0)
			v := t.ReadU64(addr)
			t.WriteU64(addr, v+1)
			st.Iter++
			t.Release(0)
		}
		t.Barrier()
	}
}

// TestRollForwardSelfSecondaryStash targets the stash path: the counter
// page's *secondary* home is the victim, so the victim's phase-1 updates
// apply locally and their only off-node copy is the diff stash in the
// saveTS deposit. Killing right after the timestamp save forces a
// roll-forward that must rebuild the committed copy from the stash.
func TestRollForwardSelfSecondaryStash(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 3
	const iters = 6
	cl, err := New(Options{
		Config: cfg, Mode: ModeFT, Pages: 2, Locks: 1,
		// Page 0: primary home 0, secondary home 1 (the initial secondary
		// is primary+1). Victim below is node 1.
		HomeAssign: func(p int) int { return 0 },
		Body:       homedCounterBody(0, iters),
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.pageHomes.Secondary(0) != 1 {
		t.Fatalf("layout assumption broken: secondary = %d", cl.pageHomes.Secondary(0))
	}
	fired := killOn(cl, obs.KReleaseSaveTS, 1, 3)
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if !*fired {
		t.Skip("victim never reached the target release")
	}
	if got := cl.PeekU64(0); got != 3*iters {
		t.Fatalf("counter = %d, want %d (stash roll-forward lost updates)", got, 3*iters)
	}
	verifyReplicaInvariants(t, cl)
}

// TestRollBackPrimaryHomeUndo targets the undo path: the counter page's
// *primary* home is the victim, so its committed copy (the roll-back
// source the paper assumes) dies with it. Killing after phase 1 but
// before the timestamp save forces a roll-back of the tentative copy via
// the shipped pre-image.
func TestRollBackPrimaryHomeUndo(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 3
	const iters = 6
	cl, err := New(Options{
		Config: cfg, Mode: ModeFT, Pages: 2, Locks: 1,
		// Page 0: primary home 1 — the victim.
		HomeAssign: func(p int) int { return 1 },
		Body:       homedCounterBody(0, iters),
	})
	if err != nil {
		t.Fatal(err)
	}
	fired := killOn(cl, obs.KReleasePhase1, 1, 3)
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if !*fired {
		t.Skip("victim never reached the target release")
	}
	if got := cl.PeekU64(0); got != 3*iters {
		t.Fatalf("counter = %d, want %d (undo roll-back corrupted the page)", got, 3*iters)
	}
	verifyReplicaInvariants(t, cl)
}

// TestLiveHolderKeepsLockThroughRecovery: a live node is inside a critical
// section when an unrelated node dies; after recovery the rebuilt lock
// state must still show the live holder, and its eventual release must
// work against the (possibly re-homed) lock.
func TestLiveHolderKeepsLockThroughRecovery(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 4
	type st struct{ Done bool }
	holderEntered := false
	cl, err := New(Options{
		Config: cfg, Mode: ModeFT, Pages: 2, Locks: 4,
		Body: func(th *Thread) {
			s := &st{}
			th.Setup(s)
			if th.ID() == 0 && !s.Done {
				// Hold lock 1 across the failure window.
				th.Acquire(1)
				holderEntered = true
				th.Compute(20_000_000) // 20 ms inside the critical section
				v := th.ReadU64(0)
				th.WriteU64(0, v+1)
				s.Done = true
				th.Release(1)
			} else if !s.Done {
				th.Compute(1_000_000)
				s.Done = true
			}
			th.Barrier()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Lock 1's homes are nodes 1 (primary) and 2 (secondary); kill the
	// primary while thread 0 (node 0) holds the lock.
	cl.Engine().At(5_000_000, func() { cl.KillNode(1) })
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if !holderEntered {
		t.Fatal("holder never entered the critical section")
	}
	if err := cl.Verify(nil); err != nil {
		t.Fatal(err)
	}
	if got := cl.PeekU64(0); got != 1 {
		t.Fatalf("critical-section write lost: %d", got)
	}
	// The rebuilt lock must be free after the release.
	l := cl.nodes[cl.lockHomes.Primary(1)].lockHomesState[1]
	for i, set := range l.vec {
		if set {
			t.Fatalf("lock 1 still shows holder %d after completion", i)
		}
	}
}

// TestRecoveryRestoreTrace: the migrated thread resumes from the newest
// checkpoint (sequence equals the victim's completed releases).
func TestRecoveryRestoreTrace(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 4
	var restored int64 = -1
	var victimReleases int64
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1, Body: counterBody(8)})
	if err != nil {
		t.Fatal(err)
	}
	onEvent(cl, func(e obs.Event) {
		switch e.Kind {
		case obs.KReleaseDone:
			if e.Node == 2 {
				victimReleases = e.Seq
			}
		case obs.KRecoveryRestore:
			restored = e.Seq
		}
	})
	cl.Engine().At(4_000_000, func() { cl.KillNode(2) })
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if restored < 0 {
		t.Skip("no checkpoint existed at kill time")
	}
	if restored != victimReleases {
		t.Fatalf("restored snapshot seq %d, victim completed %d releases", restored, victimReleases)
	}
	checkCounter(t, cl, 32)
}

// TestOracleSweepReportsAtSameEvent pins the oracle-mode liveness sweep
// (probeCluster) against the unconditional scan it replaced. The victims
// die computing, so no message ever bounces off them: the survivors,
// parked at the barrier, can only find them by the sweep on a heartbeat
// timeout, and the report must land in the event recorded with the full
// scan. At degree 3 a second node dies inside the first report, so the
// same index-ordered sweep goes on to report it too. The count that gates
// the sweep is back at zero once the nodes are excluded.
func TestOracleSweepReportsAtSameEvent(t *testing.T) {
	for _, tc := range []struct {
		name            string
		nodes, degree   int
		first, second   int // second < 0: single kill
		wantEvents      []int64
		wantUnrecovered []int
	}{
		{"degree 2", 4, 2, 3, -1, []int64{29}, []int{1}},
		{"degree 3, overlapping second kill", 6, 3, 4, 5, []int64{40, 40}, []int{1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := model.Default()
			cfg.Nodes = tc.nodes
			cfg.ReplicaDegree = tc.degree
			// At every failure report: the event it happens in, and how
			// many failures are unrecovered by then.
			var events []int64
			var counts []int
			cl, err := New(Options{
				Config: cfg, Mode: ModeFT, Pages: 2 * tc.nodes, Locks: 1,
				Body: func(th *Thread) {
					if th.node.id >= tc.first {
						th.Compute(50_000_000)
					}
					th.Barrier()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			onEvent(cl, func(e obs.Event) {
				if e.Kind != obs.KRecoveryStart {
					return
				}
				events = append(events, cl.eng.Events())
				counts = append(counts, cl.UnrecoveredFailures())
				if len(events) == 1 && tc.second >= 0 {
					cl.KillNode(tc.second)
				}
			})
			cl.eng.At(5_000_000, func() { cl.KillNode(tc.first) })
			if err := cl.Run(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(events, tc.wantEvents) || !slices.Equal(counts, tc.wantUnrecovered) {
				t.Fatalf("reports at events %v with %v unrecovered, want %v with %v",
					events, counts, tc.wantEvents, tc.wantUnrecovered)
			}
			if got := cl.UnrecoveredFailures(); got != 0 {
				t.Fatalf("%d failures still unrecovered after the run", got)
			}
			if got := cl.ProtoStats().Recoveries; got != int64(len(tc.wantEvents)) {
				t.Fatalf("%d recoveries, want %d", got, len(tc.wantEvents))
			}
			if err := cl.Verify(nil); err != nil {
				t.Fatalf("after recovery: %v", err)
			}
		})
	}
}
