package svm

import (
	"fmt"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
)

// fetchLoop runs a two-node extended-protocol cluster in which node 1's
// thread first reads page 0 (homed at node 0) and then calls f with the
// cluster and refetch: invalidate the clean page and fetch it again from
// its home — request, home fill, reply and install, what a read fault does
// after a write notice, without the fault's per-page dedupe future.
func fetchLoop(t *testing.T, f func(cl *Cluster, refetch func())) {
	t.Helper()
	cfg := model.Default()
	cfg.Nodes = 2
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 2, Locks: 1, Body: func(th *Thread) {
		if th.NodeID() != 1 {
			return
		}
		home := th.cl.pageHomes.Primary(0)
		pg := th.node.pt.page(0)
		th.ReadU64(0)
		f(th.cl, func() {
			pg.setState(pInvalid)
			if th.remoteFetch(pg, home) || pg.state != pReadOnly {
				t.Errorf("refetch of page 0 from node %d did not install a copy", home)
			}
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	if h := cl.pageHomes.Primary(0); h != 0 {
		t.Fatalf("page 0 is homed at node %d, want 0", h)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFetchRoundTripAllocBudget: a steady-state remote fetch of a clean
// page allocates nothing. The request and its reply envelope belong to the
// thread, the home copies into the envelope, the page buffer comes from
// the requester's pool and the replaced working copy goes back to it.
// (Six objects while each fetch built a request and two need vectors and
// the home cloned the page, its version and a reply.)
func TestFetchRoundTripAllocBudget(t *testing.T) {
	allocs := -1.0
	fetchLoop(t, func(_ *Cluster, refetch func()) {
		for i := 0; i < 100; i++ {
			refetch()
		}
		allocs = testing.AllocsPerRun(1000, refetch)
	})
	t.Logf("allocations per steady-state remote fetch: %.1f", allocs)
	const budget = 0
	if allocs < 0 || allocs > budget {
		t.Fatalf("a steady-state remote fetch allocates %.1f objects, budget %d", allocs, budget)
	}
}

// TestFetchEnvelopeAbandonedNeverReused: a fetch the home defers (its need
// is not covered yet) and the reader then abandons with ErrAborted, because
// a recovery opened while it waited, stays in the home's waiter list. The
// home fills its envelope when the missing update lands — after the reader
// has sent a fresh request for the same page. That fill must reach neither
// the fresh request nor any page buffer a node pools or installs, so the
// reader must have dropped the abandoned request.
func TestFetchEnvelopeAbandonedNeverReused(t *testing.T) {
	const home, writer, reader, bystander = 0, 1, 2, 3
	cfg := model.Default()
	cfg.Nodes = 4
	var got uint64
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 4, Locks: 1,
		HomeAssign: func(int) int { return home },
		Body: func(th *Thread) {
			switch th.ID() {
			case writer:
				// Commits the interval the reader is told it needs, well
				// after the recovery has aborted the reader's first fetch.
				th.Compute(30_000_000)
				th.Acquire(0)
				th.WriteU64(0, 42)
				th.Release(0)
			case reader:
				got = th.ReadU64(0)
			}
			th.Barrier()
		}})
	if err != nil {
		t.Fatal(err)
	}
	hp := cl.nodes[home].pt.page(0)
	// A write notice for the writer's first interval, which no node has
	// committed yet: the reader's fetch waits at the home until it does.
	cl.nodes[reader].pt.page(0).setReqVer(writer, 1)
	var abandoned *fetchReq
	deferred, recovered := false, false
	onEvent(cl, func(e obs.Event) {
		if e.Kind != obs.KRecoveryDone {
			return
		}
		recovered = true
		if cl.threads[reader].fetch != nil {
			t.Error("after the abort the reader still holds a request")
		}
	})
	cl.EnableAuditor()
	cl.Engine().At(1_000_000, func() { cl.KillNode(bystander) })
	cl.Engine().At(5_000_000, func() {
		abandoned = cl.threads[reader].fetch
		deferred = abandoned != nil && len(hp.waiters) == 1 && hp.waiters[0].req == abandoned
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if !deferred {
		t.Fatal("at 5 ms the home did not hold the reader's request deferred")
	}
	if !recovered || got != 42 {
		t.Fatalf("recovered %v, reader read %d: want a recovery and the writer's 42", recovered, got)
	}
	if err := cl.VerifyReplicas(); err != nil {
		t.Fatal(err)
	}
	if len(hp.waiters) != 0 {
		t.Fatalf("the home still holds %d deferred fetches", len(hp.waiters))
	}
	if v := abandoned.Reply.Ver[writer]; v != 1 {
		t.Fatalf("the abandoned envelope carries the writer's interval %d, want it filled late with 1", v)
	}
	if cl.threads[reader].fetch == abandoned {
		t.Fatal("the reader reused the abandoned request")
	}
	buf := abandoned.Reply.Data
	same := func(b []byte) bool { return len(b) > 0 && &b[0] == &buf[0] }
	for _, n := range cl.nodes {
		for pg := range n.pt.present() {
			for _, b := range [][]byte{pg.working, pg.twin, pg.dirtyWorking, pg.dirtyTwin, pg.committed, pg.tentative} {
				if same(b) {
					t.Fatalf("node %d page %d holds the abandoned envelope's buffer", n.id, pg.id)
				}
			}
		}
		for _, b := range n.pageFree {
			if same(b) {
				t.Fatalf("node %d pools the abandoned envelope's buffer", n.id)
			}
		}
	}
}

// TestFetchEnvelopeAcrossLanes runs remote fetches on the parallel engine,
// where a home fills the requester's envelope in its own lane and the
// requester installs it in another; meant for -race. Each round every node
// writes its own page and every thread then reads every page.
func TestFetchEnvelopeAcrossLanes(t *testing.T) {
	const nodes, rounds = 4, 6
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			cfg := model.Default()
			cfg.Nodes = nodes
			psz := cfg.PageSize
			cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: nodes, Locks: 1, Workers: workers,
				Body: func(th *Thread) {
					me := th.NodeID()
					for r := 1; r <= rounds; r++ {
						th.WriteU64(me*psz, uint64(r*nodes+me))
						th.Barrier()
						for p := 0; p < nodes; p++ {
							if got, want := th.ReadU64(p*psz), uint64(r*nodes+p); got != want {
								t.Errorf("round %d: node %d read %d from page %d, want %d", r, me, got, p, want)
							}
						}
						th.Barrier()
					}
				}})
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Run(); err != nil {
				t.Fatal(err)
			}
			if r := cl.SerialFallbackReason(); r != "" {
				t.Fatalf("fell back to serial (%s): no fetch crossed lanes", r)
			}
			if f := cl.ProtoStats().RemoteFetches; f < rounds*nodes*(nodes-1) {
				t.Fatalf("%d remote fetches, want at least %d", f, rounds*nodes*(nodes-1))
			}
			verifyReplicaInvariants(t, cl)
		})
	}
}

// TestFetchLeavesPagePoolsLevel is the page-buffer version of vmmc's
// TestRoundTripLeavesPoolsLevel: a fetch takes its reply buffer from the
// requester's pool and puts the working copy it replaces back there, and
// the home takes nothing. (While the home cloned its copy out of its own
// pool, every fetch moved one buffer from the home's pool to the
// requester's: the home allocated a page per fetch once its pool ran dry,
// and the requester's pool grew by one for the life of the cluster.)
func TestFetchLeavesPagePoolsLevel(t *testing.T) {
	const batch = 200
	fetchLoop(t, func(cl *Cluster, refetch func()) {
		home, req := cl.nodes[0], cl.nodes[1]
		refetch()
		h0, r0 := len(home.pageFree), len(req.pageFree)
		f0 := req.stats.RemoteFetches
		for i := 0; i < batch; i++ {
			refetch()
		}
		if f := req.stats.RemoteFetches - f0; f != batch {
			t.Errorf("the batch made %d remote fetches, want %d", f, batch)
		} else if h, r := len(home.pageFree), len(req.pageFree); h != h0 || r != r0 {
			t.Errorf("%d fetch round trips moved the page pools from %d (home) and %d (requester) to %d and %d",
				batch, h0, r0, h, r)
		}
	})
}

// siblingFault runs a four-node extended-protocol cluster with two threads
// a node, every page homed at node 0. Node 0 writes 42 to page 0 before a
// barrier; after it both threads of node 1 read the page. Thread 2 faults
// at once; thread 3 faults 2 µs later, while thread 2's fetch is on the
// wire, and must wait for it rather than fetch again. Just before thread 3
// faults it checks that the fetch runs with no waiter and calls mid. It
// returns the cluster and what threads 2 and 3 read.
func siblingFault(t *testing.T, mid func(cl *Cluster)) (*Cluster, [2]uint64) {
	t.Helper()
	cfg := model.Default()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = 2
	var got [2]uint64
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 4, Locks: 1,
		HomeAssign: func(int) int { return 0 },
		Body: func(th *Thread) {
			if th.ID() == 0 {
				th.WriteU64(0, 42)
			}
			th.Barrier()
			if th.NodeID() != 1 {
				return
			}
			if th.ID() == 3 {
				th.Compute(2_000)
				th.flush()
				if pg := th.node.pt.page(0); pg.fetching != fetchPending {
					t.Error("the sibling's fetch is not in progress with no waiter when thread 3 faults")
				}
				mid(th.cl)
			}
			got[th.ID()-2] = th.ReadU64(0)
		}})
	if err != nil {
		t.Fatal(err)
	}
	// A sibling left waiting would park forever: stop the run long after
	// it should have ended.
	cl.Engine().At(100_000_000, cl.Engine().Stop)
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if !cl.Finished() {
		t.Fatal("threads did not finish: a waiting sibling was never woken")
	}
	if f := cl.nodes[1].pt.page(0).fetching; f != nil {
		t.Fatalf("page 0 is still marked as being fetched (%p)", f)
	}
	return cl, got
}

// TestReadFaultSiblingWaits: two threads on one node fault the same page.
// One fetches it; the other makes the de-dup future, waits on it and is
// woken when the fetch installs the page.
func TestReadFaultSiblingWaits(t *testing.T) {
	cl, got := siblingFault(t, func(*Cluster) {})
	st := cl.nodes[1].stats
	if st.ReadFaults != 1 || st.RemoteFetches != 1 {
		t.Errorf("node 1 counted %d read faults and %d remote fetches, want 1 and 1", st.ReadFaults, st.RemoteFetches)
	}
	if got != [2]uint64{42, 42} {
		t.Errorf("node 1's threads read %v, want 42 twice", got)
	}
}

// TestReadFaultSiblingReleasedByRecovery: the page's home dies while the
// fetch is on the wire, so the fetching thread ends in recovery. The
// sibling waiting on its future must be released before that thread parks
// in the recovery barrier, or the sibling could never arrive there; both
// then read the page from the new home.
func TestReadFaultSiblingReleasedByRecovery(t *testing.T) {
	cl, got := siblingFault(t, func(cl *Cluster) {
		cl.Engine().At(0, func() { cl.KillNode(0) })
	})
	if r := cl.ProtoStats().Recoveries; r != 1 {
		t.Fatalf("%d recoveries, want 1", r)
	}
	if got != [2]uint64{42, 42} {
		t.Errorf("node 1's threads read %v, want 42 twice", got)
	}
	if err := cl.VerifyReplicas(); err != nil {
		t.Fatal(err)
	}
}

// TestReadFaultAllocBudget: a steady-state read fault with no sibling
// waiting allocates nothing. The page's de-dup future is made only when a
// sibling waits for it. (One object per fault while every fault made one.)
func TestReadFaultAllocBudget(t *testing.T) {
	allocs := -1.0
	cfg := model.Default()
	cfg.Nodes = 2
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 2, Locks: 1, Body: func(th *Thread) {
		if th.NodeID() != 1 {
			return
		}
		pg := th.node.pt.page(0)
		fault := func() {
			pg.setState(pInvalid)
			th.readFault(pg)
			if pg.state != pReadOnly || pg.fetching != nil {
				t.Errorf("a read fault on page 0 left it in state %v, fetching %p", pg.state, pg.fetching)
			}
		}
		for i := 0; i < 100; i++ {
			fault()
		}
		allocs = testing.AllocsPerRun(1000, fault)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if h := cl.pageHomes.Primary(0); h != 0 {
		t.Fatalf("page 0 is homed at node %d, want 0", h)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("allocations per steady-state read fault: %.1f", allocs)
	const budget = 0
	if allocs < 0 || allocs > budget {
		t.Fatalf("a steady-state read fault allocates %.1f objects, budget %d", allocs, budget)
	}
}
