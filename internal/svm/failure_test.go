package svm

import (
	"fmt"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
)

// onEvent streams every protocol event cl records to fn: the flight
// recorder's sink, through a sink-only recorder when cl has none yet. Call it after any EnableFlightRecorder: a later one replaces the
// recorder fn listens on.
func onEvent(cl *Cluster, fn func(e obs.Event)) {
	rec := cl.FlightRecorder()
	if rec == nil {
		rec = cl.EnableFlightRecorder(0)
	}
	rec.SetSink(fn)
}

// killOn fail-stops node the first time it records kind with sequence
// number seq (0: any), and reports whether it has.
func killOn(cl *Cluster, kind obs.Kind, node int, seq int64) *bool {
	fired := new(bool)
	onEvent(cl, func(e obs.Event) {
		if !*fired && e.Kind == kind && int(e.Node) == node && (seq == 0 || e.Seq == seq) {
			*fired = true
			cl.KillNode(node)
		}
	})
	return fired
}

// runWithKill runs the counter workload in FT mode and kills victim as
// killOn does, or at virtual time seq if kind is KNone.
func runWithKill(t *testing.T, kind obs.Kind, victim int, seq int64, tpn int) *Cluster {
	t.Helper()
	cfg := model.Default()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = tpn
	const iters = 8
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1, Body: counterBody(iters)})
	if err != nil {
		t.Fatal(err)
	}
	cl.EnableFlightRecorder(64)
	cl.EnableAuditor()
	fired := new(bool)
	if kind == obs.KNone {
		*fired = true
		cl.Engine().At(seq, func() { cl.KillNode(victim) })
	} else {
		fired = killOn(cl, kind, victim, seq)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if !*fired {
		t.Fatalf("event %s seq %d never fired for node %d", kind, seq, victim)
	}
	if err := cl.Verify(nil); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	checkCounter(t, cl, uint64(4*tpn*iters))
	return cl
}

// verifyReplicaInvariants checks the paper's post-recovery guarantees:
// every page's two home replicas live on distinct live nodes and hold
// identical contents and versions.
func verifyReplicaInvariants(t *testing.T, cl *Cluster) {
	t.Helper()
	if err := cl.VerifyReplicas(); err != nil {
		t.Fatal(err)
	}
}

// Each failure window of §4.5.2/§4.5.3, single-threaded nodes (the
// configuration for which replay is exact under the state-struct
// checkpoint substitution).

func TestFailDuringCompute(t *testing.T) {
	// Mid-run kill at a fixed virtual time, between synchronization points.
	runWithKill(t, obs.KNone, 2, 3_000_000, 1)
}

func TestFailAtCommit(t *testing.T) {
	// After interval commit, before phase 1: roll back.
	runWithKill(t, obs.KReleaseCommit, 1, 3, 1)
}

func TestFailAfterPhase1(t *testing.T) {
	// Phase 1 propagated, timestamp not yet saved: roll back.
	runWithKill(t, obs.KReleasePhase1, 1, 3, 1)
}

func TestFailAfterTimestampSave(t *testing.T) {
	// Timestamp + point-B checkpoint saved: roll forward, resume after
	// the release.
	runWithKill(t, obs.KReleaseSaveTS, 1, 3, 1)
}

func TestFailDuringPhase2(t *testing.T) {
	// Between the visibility point and phase-2 completion: roll forward.
	runWithKill(t, obs.KReleaseCkptB, 1, 3, 1)
}

func TestFailAfterRelease(t *testing.T) {
	runWithKill(t, obs.KReleaseDone, 1, 3, 1)
}

func TestFailEveryNode(t *testing.T) {
	// The failed node's role matters: node 0 is the initial barrier master
	// and a lock home; others hold different home sets.
	for victim := 0; victim < 4; victim++ {
		victim := victim
		t.Run(fmt.Sprintf("victim%d", victim), func(t *testing.T) {
			runWithKill(t, obs.KReleasePhase1, victim, 2, 1)
		})
	}
}

// TestFailWithNICLock kills a lock holder under the NIC-assisted lock:
// recovery must rebuild the owner word at the new homes and let the
// migrated thread re-acquire.
func TestFailWithNICLock(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 4
	const iters = 8
	opt := Options{Config: cfg, Mode: ModeFT, LockAlgo: LockNIC, Pages: 8, Locks: 1, Body: counterBody(iters)}
	cl, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	cl.EnableFlightRecorder(64)
	cl.EnableAuditor()
	cl.Engine().At(3_000_000, func() { cl.KillNode(2) })
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	checkCounter(t, cl, 4*iters)
	verifyReplicaInvariants(t, cl)
}

func TestFailDuringCheckpointA(t *testing.T) {
	// SMP node: killed while checkpointing siblings at point A.
	runWithKill(t, obs.KCkptA, 1, 0, 2)
}

func TestFailSMPCompute(t *testing.T) {
	runWithKill(t, obs.KNone, 2, 3_000_000, 2)
}

// TestFailAtBarrier kills a node once it is waiting inside a barrier: the
// remaining nodes must detect the silence, recover, and complete the
// barrier with the migrated threads.
func TestFailAtBarrier(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 4
	phases := 3
	body := func(th *Thread) {
		st := &barrierState{}
		th.Setup(st)
		// Phase counts half-steps (see perSlotBody).
		for st.Phase < 2*phases {
			if st.Phase%2 == 0 {
				ph := st.Phase / 2
				th.WriteU64(th.ID()*8+ph*64, uint64(th.ID()+ph))
				st.Phase++
			}
			th.Barrier()
			st.Phase++
		}
	}
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1, Body: body})
	if err != nil {
		t.Fatal(err)
	}
	cl.EnableFlightRecorder(64)
	cl.EnableAuditor()
	// Kill node 3 shortly after start: it will likely be inside or near a
	// barrier when the others wait for it.
	cl.Engine().At(400_000, func() { cl.KillNode(3) })
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Verify(nil); err != nil {
		t.Fatalf("after barrier-time failure: %v", err)
	}
}

// TestFailBarrierMaster kills node 0 (the barrier master and recovery
// coordinator candidate).
func TestFailBarrierMaster(t *testing.T) {
	runWithKill(t, obs.KNone, 0, 2_000_000, 1)
}

// TestSuccessiveFailuresKillTwo exercises multiple, non-simultaneous
// failures: a second node dies well after the first recovery completed.
func TestSuccessiveFailuresKillTwo(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 5
	const iters = 10
	opt := Options{Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1, Body: counterBody(iters)}
	cl, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	cl.EnableFlightRecorder(64)
	cl.EnableAuditor()
	cl.Engine().At(2_000_000, func() { cl.KillNode(1) })
	// Second, non-simultaneous failure: node 3 dies at one of its later
	// releases, but only once the first recovery has fully completed.
	second := false
	onEvent(cl, func(e obs.Event) {
		if second || e.Kind != obs.KReleaseDone || e.Node != 3 || e.Seq < 6 {
			return
		}
		if cl.nodes[1].excluded && !cl.rec.pending {
			second = true
			cl.KillNode(3)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Verify(nil); err != nil {
		t.Fatalf("after successive failures: %v", err)
	}
	checkCounter(t, cl, uint64(5*iters))
}

// TestNoPostCheckpointLeakage verifies the paper's third guarantee: no
// write executed by the failed node after its last synchronization point
// is visible anywhere after recovery. The victim writes a poison value and
// is killed before its release can propagate it.
func TestNoPostCheckpointLeakage(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 3
	type st struct{ Done bool }
	poisonAddr := 512
	opt := Options{
		Config: cfg, Mode: ModeFT, Pages: 4, Locks: 1,
		Body: func(th *Thread) {
			s := &st{}
			th.Setup(s)
			if th.NodeID() == 2 && !th.Resumed() && !s.Done {
				// Victim: write poison, then stall without releasing.
				th.Acquire(0)
				th.WriteU64(poisonAddr, 0xDEAD)
				// Die before any release propagates the write: the kill is
				// scheduled below, mid-stall.
				th.Compute(50_000_000)
				return
			}
			if !s.Done {
				th.Compute(1_000_000)
				s.Done = true
			}
			th.Barrier()
		},
	}
	cl, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	cl.Engine().At(5_000_000, func() { cl.KillNode(2) })
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	// After recovery, no live node's copies may contain the poison.
	for _, n := range cl.nodes {
		if n.dead {
			continue
		}
		for _, pg := range n.pt.every() {
			for _, buf := range [][]byte{pg.committed, pg.tentative} {
				if buf == nil {
					continue
				}
				v := uint64(buf[512]) | uint64(buf[513])<<8
				if v == 0xDEAD {
					t.Fatalf("poison write leaked to node %d", n.id)
				}
			}
		}
	}
}
