package svm

import (
	"fmt"
	"slices"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/proto"
)

// updatesLoop runs a two-node extended-protocol cluster in which node 0
// commits one interval before a barrier and node 1's thread then calls f
// with refetch: rewind node 1's entry for node 0 and fetch that interval's
// update list from node 0 again — request, home fill, reply and apply, what
// an acquire does for each origin it is behind on.
func updatesLoop(t *testing.T, f func(refetch func())) {
	t.Helper()
	cfg := model.Default()
	cfg.Nodes = 2
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 2, Locks: 1, Body: func(th *Thread) {
		if th.NodeID() == 0 {
			th.WriteU64(0, 1)
		}
		th.Barrier()
		if th.NodeID() != 1 {
			return
		}
		n := th.node
		target := n.vtSnapshot()
		if target[0] == 0 {
			t.Error("node 1 did not learn node 0's interval at the barrier")
			return
		}
		f(func() {
			// Tests only: a write that bypasses advanceVT must drop the
			// snapshot itself.
			n.vt[0], n.vtSnap = 0, nil
			th.fetchUpdates(target)
			if n.vt[0] != target[0] {
				t.Errorf("refetch left node 1's entry for node 0 at %d, want %d", n.vt[0], target[0])
			}
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdatesRoundTripAllocBudget: a steady-state update-list round trip
// allocates nothing. The request embeds its reply envelope and belongs to
// the thread, and the home answers with a window into its interval log.
// (Two objects while each fetch built a request and the home a reply.)
func TestUpdatesRoundTripAllocBudget(t *testing.T) {
	allocs := -1.0
	updatesLoop(t, func(refetch func()) {
		for i := 0; i < 100; i++ {
			refetch()
		}
		allocs = testing.AllocsPerRun(1000, refetch)
	})
	t.Logf("allocations per steady-state update-list round trip: %.1f", allocs)
	const budget = 0
	if allocs < 0 || allocs > budget {
		t.Fatalf("a steady-state update-list round trip allocates %.1f objects, budget %d", allocs, budget)
	}
}

// Roles of the abandoned-envelope scenario: the primary home of the lock
// and the pages (node 1 holds their second replicas), a writer, the reader
// whose request is abandoned, and a bystander whose death opens the
// recovery that aborts it.
const envHome, envWriter, envReader, envBystander = 0, 2, 3, 4

// abandonCluster builds the five-node scenario of the abandoned-envelope
// tests. The bystander dies at 1 ms, and the barrier waiters detect it one
// barrier timeout later. From 2.5 ms to 25 ms every packet the reader puts
// on the wire to dst is lost and retransmitted, so a request it sends to
// dst in that window is answered only after recovery has aborted it. The
// writer commits interval 1 at once and interval 2 at 45 ms; the reader
// acquires at 3 ms and again at 60 ms, and *got collects what it reads
// under the lock.
func abandonCluster(t *testing.T, dst int) (*Cluster, *[]uint64) {
	t.Helper()
	cfg := model.Default()
	cfg.Nodes = 5
	cfg.Chaos = model.Chaos{Enabled: true, BurstStartNs: 2_500_000, BurstLenNs: 22_500_000, BurstSrc: envReader, BurstDst: dst}
	got := new([]uint64)
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 4, Locks: 1,
		HomeAssign: func(int) int { return envHome },
		Body: func(th *Thread) {
			switch th.ID() {
			case envWriter:
				for i, at := range []int64{0, 45_000_000} {
					th.IdleUntil(at)
					th.Acquire(0)
					th.WriteU64(0, uint64(i+1))
					th.Release(0)
				}
			case envReader:
				for _, at := range []int64{3_000_000, 60_000_000} {
					th.IdleUntil(at)
					th.Acquire(0)
					*got = append(*got, th.ReadU64(0))
					th.Release(0)
				}
			}
			th.Barrier()
		}})
	if err != nil {
		t.Fatal(err)
	}
	if h := cl.lockHomes.Primary(0); h != envHome {
		t.Fatalf("lock 0 is homed at node %d, want %d", h, envHome)
	}
	cl.EnableAuditor()
	cl.Engine().At(1_000_000, func() { cl.KillNode(envBystander) })
	return cl, got
}

// runAbandoned runs the scenario, calling held(false) when the recovery
// opens and held(true) when it completes, and checks that it completed.
func runAbandoned(t *testing.T, cl *Cluster, held func(done bool)) {
	t.Helper()
	recovered := false
	cl.opt.Tracer = tracerFunc(func(e TraceEvent) {
		switch e.Kind {
		case "recovery.start":
			held(false)
		case "recovery.done":
			recovered = true
			held(true)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if !recovered {
		t.Fatal("no recovery completed")
	}
	if err := cl.VerifyReplicas(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdatesEnvelopeAbandonedNeverReused: an update-list request the
// reader abandons with ErrAborted, because a recovery opened while it was
// still on the wire, reaches the writer after the reader has moved on.
// The writer fills its envelope then. That fill must never reach a request
// the reader sends later, so the reader must have dropped the abandoned
// one.
func TestUpdatesEnvelopeAbandonedNeverReused(t *testing.T) {
	cl, got := abandonCluster(t, envWriter)
	reader := func() *Thread { return cl.threads[envReader] }
	var abandoned *updatesReq
	runAbandoned(t, cl, func(done bool) {
		if !done {
			abandoned = reader().upd
			if abandoned == nil || abandoned.Reply.Lists != nil {
				t.Error("when the recovery opened the reader was not waiting on an unanswered update-list request")
			}
		} else if reader().upd != nil {
			t.Error("after the abort the reader still holds a request")
		}
	})
	if abandoned == nil {
		t.Fatal("no abandoned request")
	}
	if l := abandoned.Reply.Lists; len(l) != 1 || l[0].Node != envWriter || l[0].Interval != 1 {
		t.Fatalf("the abandoned envelope holds %v, want it filled late with the writer's interval 1", l)
	}
	switch upd := reader().upd; {
	case upd == abandoned:
		t.Fatal("the reader reused the abandoned request")
	case upd == nil || upd.To != 2:
		t.Fatal("the reader made no fresh update-list request for the writer's interval 2")
	}
	if !slices.Equal(*got, []uint64{1, 2}) {
		t.Fatalf("the reader read %v under the lock, want [1 2]", *got)
	}
}

// TestLockReadEnvelopeAbandonedNeverReused is the lock-read version: the
// reader's read of the lock vector is abandoned the same way, and the home
// answers it late, into the abandoned envelope. The reader's retry, and
// every read after it, must use a new request and envelope, or the late
// fill could land in a timestamp the acquirer is still using.
func TestLockReadEnvelopeAbandonedNeverReused(t *testing.T) {
	cl, got := abandonCluster(t, envHome)
	ol := func() *ownedLock { return cl.nodes[envReader].owned[0] }
	var abandoned *lockRead
	runAbandoned(t, cl, func(done bool) {
		if !done {
			abandoned = ol().read
			if abandoned == nil || abandoned.Reply.vtLen != 0 {
				t.Error("when the recovery opened the reader was not waiting on its first, unanswered lock read")
			}
		} else if r := ol().read; r == abandoned {
			t.Error("after the abort the reader still holds the abandoned read")
		}
	})
	if abandoned == nil {
		t.Fatal("no abandoned read")
	}
	if abandoned.Reply.vtLen == 0 {
		t.Fatal("the home never filled the abandoned envelope")
	}
	if r := ol().read; r == abandoned || r == nil {
		t.Fatal("the reader reused the abandoned read, or made none after it")
	}
	if !slices.Equal(*got, []uint64{1, 2}) {
		t.Fatalf("the reader read %v under the lock, want [1 2]", *got)
	}
}

// envelopeRounds runs lock-heavy rounds on the parallel engine, where a
// lock home fills a remote acquirer's read envelope in its own lane and an
// origin fills an update-list envelope for a requester in another, while
// other lanes read the releasers' shared vector-time snapshots; meant for
// -race. Each round every thread takes every lock, homed one per node, and
// adds to that lock's page.
func envelopeRounds(t *testing.T, check func(t *testing.T, cl *Cluster)) {
	const nodes, rounds = 4, 4
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			cfg := model.Default()
			cfg.Nodes = nodes
			psz := cfg.PageSize
			cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: nodes, Locks: nodes, Workers: workers,
				Body: func(th *Thread) {
					for r := 0; r < rounds; r++ {
						for i := 0; i < nodes; i++ {
							l := (th.NodeID() + i) % nodes
							th.Acquire(l)
							th.WriteU64(l*psz, th.ReadU64(l*psz)+1)
							th.Release(l)
						}
					}
					th.Barrier()
				}})
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Run(); err != nil {
				t.Fatal(err)
			}
			if r := cl.SerialFallbackReason(); r != "" {
				t.Fatalf("fell back to serial (%s): nothing crossed lanes", r)
			}
			for l := 0; l < nodes; l++ {
				if got := cl.PeekU64(l * psz); got != nodes*rounds {
					t.Errorf("lock %d's counter is %d, want %d", l, got, nodes*rounds)
				}
			}
			verifyReplicaInvariants(t, cl)
			check(t, cl)
		})
	}
}

// TestLockReadEnvelopeAcrossLanes: every node reads every remote lock's
// vector into its own envelope.
func TestLockReadEnvelopeAcrossLanes(t *testing.T) {
	envelopeRounds(t, func(t *testing.T, cl *Cluster) {
		for _, n := range cl.nodes {
			for l := range cl.nodes {
				if cl.lockHomes.Primary(l) == n.id {
					continue
				}
				if ol := n.owned[l]; ol == nil || ol.read == nil || !ol.read.Reply.Sole {
					t.Errorf("node %d holds no granted read envelope for lock %d", n.id, l)
				}
			}
		}
	})
}

// TestUpdatesEnvelopeAcrossLanes: every thread fetches update lists into
// its own envelope.
func TestUpdatesEnvelopeAcrossLanes(t *testing.T) {
	envelopeRounds(t, func(t *testing.T, cl *Cluster) {
		for _, th := range cl.threads {
			if th.upd == nil || len(th.upd.Reply.Lists) == 0 {
				t.Errorf("thread %d fetched no update lists", th.id)
			}
		}
	})
}

// VTSnapshotWatch keeps a private clone of every vector-time snapshot a
// cluster's nodes hand out, for the external test package, whose workloads
// import svm (see TestVTSnapshotsNeverMutated).
type VTSnapshotWatch struct {
	snaps, clones []proto.VectorTime
}

// WatchVTSnapshots attaches a watch to cl. Call before Run.
func WatchVTSnapshots(cl *Cluster) *VTSnapshotWatch {
	w := &VTSnapshotWatch{}
	cl.vtSnapHook = func(s proto.VectorTime) {
		w.snaps = append(w.snaps, s)
		w.clones = append(w.clones, slices.Clone(s))
	}
	return w
}

// Len returns the number of snapshots the watch has seen.
func (w *VTSnapshotWatch) Len() int { return len(w.snaps) }

// Err names the first snapshot that no longer equals its clone, if any.
func (w *VTSnapshotWatch) Err() error {
	for i, s := range w.snaps {
		if !slices.Equal(s, w.clones[i]) {
			return fmt.Errorf("snapshot %d of %d was written: %v, handed out as %v", i, len(w.snaps), s, w.clones[i])
		}
	}
	return nil
}

// TestVTSnapshotTracksVT: after each of the four sites that write n.vt —
// an interval commit, the notices a barrier release applies, an acquire's
// update-list fetch, and recovery's global merge — the node's snapshot
// equals n.vt, and a snapshot taken before the write still holds the
// values it was taken with.
func TestVTSnapshotTracksVT(t *testing.T) {
	// taken returns a check of one site on n: it takes a snapshot now, and
	// the check it returns requires that n.vt moved since, that the
	// snapshot did not, and that a new snapshot equals n.vt.
	taken := func(t *testing.T, n *node, site string) func() {
		old := n.vtSnapshot()
		was := slices.Clone(old)
		return func() {
			t.Helper()
			switch s := n.vtSnapshot(); {
			case slices.Equal(n.vt, was):
				t.Errorf("%s: node %d's vector time stayed %v, so nothing was checked", site, n.id, was)
			case !slices.Equal(old, was):
				t.Errorf("%s: node %d's snapshot taken before it moved from %v to %v", site, n.id, was, old)
			case !slices.Equal(s, n.vt):
				t.Errorf("%s: node %d's snapshot is %v, its vector time %v", site, n.id, s, n.vt)
			}
		}
	}
	// step checks the site that write runs on n.
	step := func(t *testing.T, n *node, site string, write func()) {
		t.Helper()
		check := taken(t, n, site)
		write()
		check()
	}

	t.Run("healthy", func(t *testing.T) {
		runCluster(t, ModeFT, 3, 1, 3, 1, func(th *Thread) {
			n := th.node
			switch n.id {
			case 0:
				// Nodes 1 and 2 committed intervals this node never
				// acquired after: the barrier release carries them.
				step(t, n, "applyNotices", th.Barrier)
				return
			case 1:
				th.Acquire(0)
				th.WriteU64(0, 1)
				step(t, n, "commitInterval", func() { th.Release(0) })
			case 2:
				th.Compute(5_000_000)
				step(t, n, "fetchUpdates", func() { th.Acquire(0) })
				th.WriteU64(0, 2)
				th.Release(0)
			}
			th.Barrier()
		})
	})

	t.Run("recovery", func(t *testing.T) {
		const dead = 3
		cfg := model.Default()
		cfg.Nodes = 4
		cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 4, Locks: 1, Body: func(th *Thread) {
			switch th.NodeID() {
			case 1:
				// An interval no other node acquires after: only the
				// recovery's global merge spreads it, because the barrier
				// cannot complete without the node that dies before it.
				th.Acquire(0)
				th.WriteU64(0, 1)
				th.Release(0)
			case dead:
				th.Compute(5_000_000)
			}
			th.Barrier()
		}})
		if err != nil {
			t.Fatal(err)
		}
		var checks []func()
		cl.opt.Tracer = tracerFunc(func(e TraceEvent) {
			switch e.Kind {
			case "recovery.locks": // the step before globalSync
				for _, n := range cl.nodes {
					if !n.dead && n.id != 1 {
						checks = append(checks, taken(t, n, "globalSync"))
					}
				}
			case "recovery.sync":
				for _, check := range checks {
					check()
				}
				checks = nil
			}
		})
		cl.Engine().At(1_000_000, func() { cl.KillNode(dead) })
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		if cl.ProtoStats().Recoveries != 1 {
			t.Fatalf("%d recoveries, want 1", cl.ProtoStats().Recoveries)
		}
		if checks != nil {
			t.Fatal("the recovery never reached its global merge")
		}
	})
}

// TestLockReleaseOnWireNeverRefilled: a node releases a lock again while
// the copy of its previous release to the lock's secondary home is still
// on the wire, and its vector time moved in between. Node 0 is the lock's
// primary home and the barrier master, so it acquires, releases, completes
// a barrier and acquires again without a round trip; a burst on its link
// to the secondary home holds the first release's copy there, and the
// barrier brings it the other nodes' intervals. The second release must
// post a new envelope: refilling the first would have the secondary merge
// the second release's vector time at the first delivery.
func TestLockReleaseOnWireNeverRefilled(t *testing.T) {
	const nodes, lock, start = 4, 0, 1_000_000
	var first, second *lockRelease
	var firstVT, secondVT proto.VectorTime
	build := func(ch model.Chaos) *Cluster {
		cfg := model.Default()
		cfg.Nodes = nodes
		cfg.Chaos = ch
		psz := cfg.PageSize
		cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: nodes, Locks: 1,
			HomeAssign: func(p int) int { return p },
			Body: func(th *Thread) {
				n := th.node
				if n.id != 0 {
					// A page of its own, so no request waits on node 0.
					th.WriteU64(n.id*psz, 1)
					th.Barrier()
					return
				}
				th.Compute(start) // the others commit and arrive first
				th.Acquire(lock)
				th.Release(lock)
				first = n.owned[lock].rel
				firstVT = slices.Clone(first.VT)
				th.Barrier()
				th.Acquire(lock)
				th.Release(lock)
				second = n.owned[lock].rel
				secondVT = slices.Clone(second.VT)
			}})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	// The burst targets the link to the lock's secondary home.
	sec := build(model.Chaos{}).lockHomes.Replica(lock, 1)
	cl := build(model.Chaos{Enabled: true, BurstStartNs: start, BurstLenNs: 200_000, BurstSrc: 0, BurstDst: sec})
	if p := cl.lockHomes.Primary(lock); p != 0 || cl.masterNode() != 0 {
		t.Fatalf("lock %d is homed at node %d and the master is node %d, want both at node 0", lock, p, cl.masterNode())
	}
	var merged proto.VectorTime
	onWire := false
	cl.opt.Tracer = tracerFunc(func(e TraceEvent) {
		if e.Kind == "lock.clear" && e.Node == sec && merged == nil {
			onWire = second != nil
			merged = slices.Clone(cl.nodes[sec].lockHomesState[lock].vt)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	switch {
	case second == nil || merged == nil:
		t.Fatal("node 0 did not release twice, or no release reached the secondary home")
	case !onWire:
		t.Fatal("the first release reached the secondary home before the second was made: nothing was checked")
	case slices.Equal(firstVT, secondVT):
		t.Fatalf("both releases carried %v: the barrier moved nothing, so nothing was checked", firstVT)
	case first == second:
		t.Error("the second release refilled the envelope still on the wire")
	}
	if !slices.Equal(merged, firstVT) {
		t.Errorf("at the first release's delivery the secondary home holds %v, want that release's %v (the second carried %v)", merged, firstVT, secondVT)
	}
}
