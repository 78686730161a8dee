package svm

import (
	"fmt"
	"strings"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
	"ftsvm/internal/proto"
)

// propPickLock deterministically picks the lock a thread contends for in a
// given iteration. The same function drives the workload body and the
// test's expected-count computation, and — because it depends only on
// (thread, iter) — a thread replayed after a failure re-acquires exactly
// the locks its pre-failure execution did.
func propPickLock(thread, iter, nlocks int) int {
	x := uint32(thread+1)*2654435761 + uint32(iter+1)*40503
	x ^= x >> 13
	return int(x>>4) % nlocks
}

// lockStepState follows the resumable-state contract of counterBody:
// Iter advances before Release so a replayed interval is never
// double-applied.
type lockStepState struct {
	Iter int
}

// lockStepBody increments, under a pseudo-randomly chosen lock, the
// per-lock counter word at offset 8*lock.
func lockStepBody(iters, nlocks int) func(*Thread) {
	return func(t *Thread) {
		st := &lockStepState{}
		t.Setup(st)
		for st.Iter < iters {
			l := propPickLock(t.ID(), st.Iter, nlocks)
			t.Acquire(l)
			v := t.ReadU64(l * 8)
			t.Compute(150)
			t.WriteU64(l*8, v+1)
			st.Iter++
			t.Release(l)
		}
		t.Barrier()
	}
}

// finalU64 reads a word from page 0's authoritative copy after a run.
func finalU64(t *testing.T, cl *Cluster, addr int) uint64 {
	t.Helper()
	home := cl.pageHomes.Primary(0)
	pg := cl.nodes[home].pt.page(0)
	buf := pg.working
	if cl.opt.Mode == ModeFT {
		buf = pg.committed
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(buf[addr+i]) << (8 * i)
	}
	return v
}

// TestMutualExclusionProperty is the cross-algorithm mutual-exclusion
// property test: random lock contention across all three lock algorithms,
// both protocol modes, SMP nodes, and an optional mid-run failure. The
// online auditor asserts the single-holder invariant after every
// simulated event; the per-lock counters prove no increment was
// lost or duplicated end to end.
func TestMutualExclusionProperty(t *testing.T) {
	const (
		nodes  = 4
		iters  = 6
		nlocks = 3
	)
	cases := []struct {
		name string
		mode Mode
		algo LockAlgo
		tpn  int
		kill bool // kill node 2 mid-run (FT only)
	}{
		{"base/queue", ModeBase, LockQueue, 1, false},
		{"base/polling", ModeBase, LockPolling, 1, false},
		{"base/nic", ModeBase, LockNIC, 1, false},
		{"ft/polling", ModeFT, LockPolling, 1, false},
		{"ft/nic", ModeFT, LockNIC, 1, false},
		{"ft/polling/smp", ModeFT, LockPolling, 2, false},
		{"ft/polling/kill", ModeFT, LockPolling, 1, true},
		{"ft/nic/kill", ModeFT, LockNIC, 1, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := model.Default()
			cfg.Nodes = nodes
			cfg.ThreadsPerNode = tc.tpn
			opt := Options{
				Config: cfg, Mode: tc.mode, LockAlgo: tc.algo,
				Pages: 8, Locks: nlocks, Body: lockStepBody(iters, nlocks),
			}
			cl, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			cl.EnableFlightRecorder(32)
			cl.EnableAuditor()
			var fired *bool
			if tc.kill {
				// Kill node 2 at one of its release commits — a milestone
				// every case reaches, unlike a fixed virtual time the short
				// workload may finish before.
				fired = killOn(cl, obs.KReleaseCommit, 2, 2)
			}
			if err := cl.Run(); err != nil {
				t.Fatal(err)
			}
			if fired != nil && !*fired {
				t.Fatal("kill milestone never fired")
			}
			if !cl.Finished() {
				t.Fatal("not all threads finished")
			}
			for l := 0; l < nlocks; l++ {
				if h := cl.auditHolders(l); len(h) > 1 {
					t.Fatalf("lock %d held by %v after run", l, h)
				}
			}
			want := make([]uint64, nlocks)
			for th := 0; th < nodes*tc.tpn; th++ {
				for it := 0; it < iters; it++ {
					want[propPickLock(th, it, nlocks)]++
				}
			}
			for l := 0; l < nlocks; l++ {
				if got := finalU64(t, cl, l*8); got != want[l] {
					t.Errorf("lock %d counter = %d, want %d", l, got, want[l])
				}
			}
			if tc.mode == ModeFT {
				verifyReplicaInvariants(t, cl)
			}
		})
	}
}

// TestNICLockGrantReplicationWindow is the regression for the NIC lock's
// fault-tolerance window: the grant used to return before the owner
// element was replicated at the secondary home, so killing the primary
// home while a remote acquirer held the lock let recovery rebuild the
// lock as free and grant it twice. The home's NIC now replicates before
// the grant reply leaves (per-sender FIFO delivers the element first);
// with the old code this test fails at the very first remote grant — the
// auditor's lock-replication invariant trips — and, end to end,
// the counter loses increments to the double grant.
func TestNICLockGrantReplicationWindow(t *testing.T) {
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
	// Kill the lock's primary home the instant a *remote* acquirer
	// transitions to holding — the exact window the bug left open.
	done := false
	onEvent(cl, func(e obs.Event) {
		if done || e.Kind != obs.KLockHeld || e.Seq != 0 {
			return
		}
		prim := cl.lockHomes.Primary(0)
		if int(e.Node) == prim {
			return
		}
		done = true
		cl.KillNode(prim)
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("no remote acquire ever happened")
	}
	if !cl.Finished() {
		t.Fatal("not all threads finished after recovery")
	}
	checkCounter(t, cl, 4*iters)
	verifyReplicaInvariants(t, cl)
}

// TestStrayQueueGrantPanics is the regression for the silent qlGrant
// drop: a grant arriving with no pending acquire can only mean a protocol
// bug (the home records the requester as tail, so the lock would be
// stranded forever), and must panic instead of being ignored.
func TestStrayQueueGrantPanics(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 4
	opt := Options{Config: cfg, Mode: ModeBase, LockAlgo: LockQueue, Pages: 2, Locks: 1,
		Body: func(th *Thread) { th.Barrier() }}
	cl, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("stray qlGrant was silently dropped")
		}
		if !strings.Contains(fmt.Sprint(r), "stray queue-lock grant") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	cl.nodes[1].applyLockMsg(0, &qlGrant{Lock: 0, VT: proto.NewVector(cfg.Nodes)})
}

// TestRemoteAcquiresExcludesPrimaryHome pins the stats fix: an acquire
// served from the node's own primary-home lock state involves no remote
// message and must not count as a remote acquire.
func TestRemoteAcquiresExcludesPrimaryHome(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 2
	const iters = 4
	opt := Options{Config: cfg, Mode: ModeBase, Pages: 2, Locks: 1, Body: counterBody(iters)}
	cl, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	checkCounter(t, cl, 2*iters)
	// One node hosts the lock's primary home; only the other node's
	// acquires are remote.
	if got := cl.ProtoStats().RemoteAcquires; got != iters {
		t.Fatalf("RemoteAcquires = %d, want %d (home-node acquires are local)", got, iters)
	}
}
