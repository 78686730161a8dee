package svm

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
)

// Tests for the scale-out features (tree fan-out, delta vector-time
// encoding, bounded probe windows) and the capacity audits that make the
// 64-node tier safe: every assumption that silently held at the paper's
// 8 nodes is pinned by a revert-failing regression here.

// TestThreadCapGuard pins the int16 writer-tag audit: page.writers stores
// thread ids as int16, so New must refuse a cluster whose thread count
// would alias writer identity instead of silently corrupting deferral.
func TestThreadCapGuard(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 256
	cfg.ThreadsPerNode = 129 // 33024 > 32767
	_, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 256, Locks: 1, Body: func(*Thread) {}})
	if err == nil {
		t.Fatal("New accepted a cluster with more threads than int16 writer tags can name")
	}
	if !strings.Contains(err.Error(), "writer-tag") {
		t.Fatalf("wrong error: %v", err)
	}
}

// xlargeConfig is the 512-node tier's model configuration
// (harness.TierXLarge, which this package cannot import).
func xlargeConfig() model.Config {
	cfg := model.Default()
	cfg.Nodes = 512
	cfg.FanoutArity = 8
	cfg.VTCodec = model.VTDelta
	cfg.ProbeNeighbors = 3
	cfg.LockBackoffMaxNs = 40_000 * 512 * 512 / 64
	cfg.Directory = model.DirHashed
	return cfg
}

// TestNewClusterAllocBudget is the construction gate for the 512-node
// tier: New allocates O(nodes + pages) objects and bytes — a node's page
// table starts with the runs that hold its home pages, and no
// per-(node, page) vector — so building the xlarge shape stays within a
// budget the eager layout exceeded 40-fold (537 687 objects, 682 MB) and
// one slab of every page per node 9-fold (145 MB).
func TestNewClusterAllocBudget(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 512
	cfg.Directory = model.DirHashed
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 512, Locks: 1, Body: func(*Thread) {}})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	mallocs, mb := after.Mallocs-before.Mallocs, float64(after.TotalAlloc-before.TotalAlloc)/1e6
	t.Logf("New(512 nodes x 512 pages): %d mallocs, %.1f MB", mallocs, mb)
	if mallocs > 20_000 || mb > 16 {
		t.Fatalf("New allocates %d objects / %.1f MB, budget 20000 / 16 MB", mallocs, mb)
	}
	// Node 511 is home to pages 510 and 511 and has touched nothing else.
	pt := cl.nodes[511].pt
	if pt.runs[0] != nil {
		t.Fatal("node 511 holds page 0, which nothing has touched")
	}
	if pg := pt.page(0); pg.id != 0 || pg.pt != pt || pg.state != pInvalid || pg.reqVer != nil || pg.working != nil || pg.locked {
		t.Fatalf("page 0, materialised on first touch, is not the zero page: id %d state %d", pg.id, pg.state)
	}
	if pg := pt.page(511); pg.id != 511 || pg.pt != pt || pg.committed == nil {
		t.Fatalf("home page 511 mis-initialised: id %d, committed copy %v", pg.id, pg.committed != nil)
	}
}

// TestPageRunFitsSizeClass pins the arithmetic behind pageRunLen: a full
// run and the allocator's 8-byte header for a pointerful object must fit
// the 8 KB size class. One more word in page and every run moves to the
// 9.25 KB class, 16% more memory for every page any node touches.
func TestPageRunFitsSizeClass(t *testing.T) {
	if sz := pageRunLen*unsafe.Sizeof(page{}) + 8; sz > 8192 {
		t.Fatalf("a run of %d pages of %d bytes takes %d bytes with its header, over the 8192-byte size class", pageRunLen, unsafe.Sizeof(page{}), sz)
	}
}

// TestPageTableStaysSparse runs the lock-bound micro-workload on the
// 512-node tier, healthy and with a node killed at its second release: a
// node touches the counter's page and its own home pages, recovery hands
// a survivor a few of the victim's, and the walks recovery makes over
// every survivor's table (wakeForRecovery, the waiter re-serve, the
// dead-node clamp) must not build the rest. Four runs of pages is what a
// node's own three can grow to with a rehomed page in a fourth.
func TestPageTableStaysSparse(t *testing.T) {
	if testing.Short() {
		t.Skip("two 512-node runs")
	}
	const bound = 4 * pageRunLen
	for _, kill := range []bool{false, true} {
		cl, err := New(Options{Config: xlargeConfig(), Mode: ModeFT, Pages: 512, Locks: 1, Body: counterBody(6)})
		if err != nil {
			t.Fatal(err)
		}
		if kill {
			killOn(cl, obs.KReleaseDone, 256, 2)
		}
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		if kill && cl.ProtoStats().Recoveries != 1 {
			t.Fatal("the kill was never recovered from")
		}
		checkCounter(t, cl, 512*6)
		most, total := 0, 0
		for _, n := range cl.nodes {
			c := 0
			for range n.pt.present() {
				c++
			}
			most, total = max(most, c), total+c
		}
		t.Logf("kill=%v: %d of %d (node, page) pairs materialised, at most %d on one node", kill, total, 512*512, most)
		if most > bound {
			t.Fatalf("kill=%v: a node materialised %d of 512 pages, bound %d", kill, most, bound)
		}
	}
}

// TestRecoveryBarrierReset pins the post-recovery barrier hygiene fixed for
// the 64-node tier: stale arrival counts for skipped episodes must not leak
// (old code deleted only barCount[maxDone]), an unapplied release beyond
// the roll-forward horizon must be cleared (applying it after barSentEpoch
// was wiped would deadlock the new master waiting for an arrival that will
// never be resent), and the tree-forwarding watermark must roll back so the
// re-broadcast is relayed on the post-recovery tree.
func TestRecoveryBarrierReset(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 4
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 4, Locks: 1, Body: func(*Thread) {}})
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 (the dead master) merged episode 6 and broadcast partially.
	cl.nodes[0].dead = true
	// Node 1 applied nothing past 5; it holds the stranded release for 6.
	cl.nodes[1].barEpoch = 5
	cl.nodes[1].barRelease = &barRelease{Epoch: 6}
	cl.nodes[1].barForwarded = 6
	// Node 2 is one episode behind with threads arrived for 5 — it rolls
	// forward — plus leaked counts from episodes long done.
	cl.nodes[2].barEpoch = 4
	cl.nodes[2].barCount[5] = 1
	cl.nodes[2].barCount[2] = 1 // the leak: old code never deleted this
	// Node 3 holds the release for an episode the cluster completed.
	cl.nodes[3].barEpoch = 5
	cl.nodes[3].barRelease = &barRelease{Epoch: 5}

	cl.resetBarrierPlumbing()

	if cl.nodes[2].barEpoch != 5 {
		t.Fatalf("node 2 not rolled forward: barEpoch = %d, want 5", cl.nodes[2].barEpoch)
	}
	if len(cl.nodes[2].barCount) != 0 {
		t.Fatalf("node 2 leaked barCount entries: %v", cl.nodes[2].barCount)
	}
	if cl.nodes[1].barRelease != nil {
		t.Fatal("stranded release for an un-completed episode not cleared")
	}
	if cl.nodes[1].barForwarded != 5 {
		t.Fatalf("barForwarded not rolled back: %d, want 5", cl.nodes[1].barForwarded)
	}
	if cl.nodes[3].barRelease == nil {
		t.Fatal("completed-episode release must stay consumable")
	}
	for _, n := range cl.nodes[1:] {
		if n.barSentEpoch != 0 {
			t.Fatalf("node %d barSentEpoch not reset", n.id)
		}
	}
}

// phasedBody writes the thread's slot and barriers, rounds times: the
// minimal many-episode workload for exercising the release broadcast.
func phasedBody(rounds int) func(*Thread) {
	return func(t *Thread) {
		st := &counterState{}
		t.Setup(st)
		for st.Iter < rounds {
			t.WriteU64(t.ID()*8, uint64((st.Iter+1)*1000+t.ID()))
			st.Iter++
			t.Barrier()
		}
	}
}

// checkPhased verifies every thread's slot holds its final-round value.
func checkPhased(t *testing.T, cl *Cluster, rounds int) {
	t.Helper()
	for _, th := range cl.Threads() {
		got := cl.PeekU64(th.ID() * 8)
		want := uint64(rounds*1000 + th.ID())
		if got != want {
			t.Fatalf("thread %d slot = %d, want %d", th.ID(), got, want)
		}
	}
}

// TestTreeFanoutBarrier runs a multi-episode barrier workload over the
// spanning-tree broadcast at several arities and sizes, with the online
// auditor on, and checks the memory outcome against the flat broadcast's.
func TestTreeFanoutBarrier(t *testing.T) {
	const rounds = 6
	for _, tc := range []struct{ nodes, arity int }{
		{8, 2}, {16, 4}, {9, 3},
	} {
		cfg := model.Default()
		cfg.Nodes = tc.nodes
		cfg.FanoutArity = tc.arity
		cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 2 * tc.nodes, Locks: 1, Body: phasedBody(rounds)})
		if err != nil {
			t.Fatal(err)
		}
		cl.EnableAuditor()
		if err := cl.Run(); err != nil {
			t.Fatalf("nodes=%d arity=%d: %v", tc.nodes, tc.arity, err)
		}
		if !cl.Finished() {
			t.Fatalf("nodes=%d arity=%d: not all threads finished", tc.nodes, tc.arity)
		}
		checkPhased(t, cl, rounds)
	}
}

// TestTreeFanoutMasterDeath kills the barrier master a beat after it merges
// an episode under tree fan-out, sweeping the kill delay across the
// broadcast's propagation window so every partial-delivery shape occurs:
// no child reached, some subtrees reached (stranded unapplied releases on
// relay nodes), and everyone reached. Recovery must clear strands, resend
// arrivals, and re-broadcast on the reshaped tree.
func TestTreeFanoutMasterDeath(t *testing.T) {
	const rounds = 5
	for _, delayNs := range []int64{0, 1_000, 5_000, 20_000, 100_000} {
		t.Run(fmt.Sprintf("delay=%dns", delayNs), func(t *testing.T) {
			cfg := model.Default()
			cfg.Nodes = 8
			cfg.FanoutArity = 2
			cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 16, Locks: 1, Body: phasedBody(rounds)})
			if err != nil {
				t.Fatal(err)
			}
			cl.EnableAuditor()
			fired := false
			onEvent(cl, func(e obs.Event) {
				if fired || e.Kind != obs.KBarrierRelease || e.Node != 0 || e.Seq != 3 {
					return
				}
				fired = true
				if delayNs == 0 {
					cl.KillNode(0)
					return
				}
				// A delayed kill lets part of the tree broadcast drain first.
				cl.Engine().At(delayNs, func() { cl.KillNode(0) })
			})
			if err := cl.Run(); err != nil {
				t.Fatal(err)
			}
			if !fired {
				t.Fatal("master never merged episode 3")
			}
			if !cl.Finished() {
				t.Fatal("threads stranded after master death")
			}
			checkPhased(t, cl, rounds)
			verifyReplicaInvariants(t, cl)
		})
	}
}

// TestDeltaCodecSameResultSmallerWire runs the counter workload with full
// and delta vector-time encodings and checks the outcome is identical while
// the delta run ships strictly fewer modeled wire bytes.
func TestDeltaCodecSameResultSmallerWire(t *testing.T) {
	const iters = 8
	bytesFor := func(codec model.VTCodecMode) int64 {
		cfg := model.Default()
		cfg.Nodes = 8
		cfg.VTCodec = codec
		cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1, Body: counterBody(iters)})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		checkCounter(t, cl, uint64(8*iters))
		var sum int64
		for i := range cl.nodes {
			sum += cl.net.Endpoint(i).Stats().BytesSent
		}
		return sum
	}
	full := bytesFor(model.VTFull)
	delta := bytesFor(model.VTDelta)
	if delta >= full {
		t.Fatalf("delta encoding did not shrink wire volume: full=%d delta=%d", full, delta)
	}
}

// TestBoundedProbeDetection kills a node under probe-mode detection with a
// rotating 2-neighbor window: detection must still confirm the death (the
// rotation reaches every peer) and the run must recover and finish.
func TestBoundedProbeDetection(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 8
	cfg.Detection = model.DetectProbe
	cfg.ProbeNeighbors = 2
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 16, Locks: 1, Body: phasedBody(5)})
	if err != nil {
		t.Fatal(err)
	}
	cl.Engine().At(1_000_000, func() { cl.KillNode(5) })
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if !cl.Finished() {
		t.Fatal("cluster never recovered with a bounded probe window")
	}
	if cl.ProtoStats().Recoveries == 0 {
		t.Fatal("no recovery ran — the kill never happened?")
	}
	checkPhased(t, cl, 5)
}

// fanoutChildrenRef is fanoutChildren as it was before the membership
// order was cached: rebuilt from the nodes on every call.
func fanoutChildrenRef(cl *Cluster, self int) []int {
	k := cl.cfg.FanoutArity
	master := cl.masterNode()
	live := []int{master}
	for id, nd := range cl.nodes {
		if !nd.excluded && id != master {
			live = append(live, id)
		}
	}
	idx := slices.Index(live, self)
	if idx < 0 || k*idx+1 >= len(live) {
		return nil
	}
	return live[k*idx+1 : min(k*idx+1+k, len(live))]
}

// TestFanoutChildrenCached holds the cached tree order to the recomputed
// one for every node across a sequence of exclusions — the master, a leaf,
// an inner node, the next master — and pins that relaying a release in a
// settled membership allocates nothing.
func TestFanoutChildrenCached(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 23
	cfg.FanoutArity = 3
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 23, Locks: 1, Body: func(*Thread) {}})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for self := range cl.nodes {
			if got, want := cl.fanoutChildren(self), fanoutChildrenRef(cl, self); !slices.Equal(got, want) {
				t.Fatalf("%s: children of node %d = %v, recomputed %v", when, self, got, want)
			}
		}
	}
	check("full membership")
	for _, victim := range []int{0, 22, 2, 1, 11} {
		cl.nodes[victim].dead = true
		cl.unrecovered++
		cl.exclude(cl.nodes[victim])
		check(fmt.Sprintf("node %d excluded", victim))
	}
	if allocs := testing.AllocsPerRun(100, func() { cl.fanoutChildren(7) }); allocs != 0 {
		t.Fatalf("fanoutChildren allocates %.1f objects per call in a settled membership", allocs)
	}
}
