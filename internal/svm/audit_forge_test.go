package svm

import (
	"errors"
	"strings"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
	"ftsvm/internal/proto"
)

// idleCluster is the stage for forged violations: every thread computes
// for 10 ms of virtual time and meets at a barrier, so nothing of the
// protocol moves while the test forges state from Engine.At callbacks.
func idleCluster(t *testing.T, mode Mode, nodes int) *Cluster {
	t.Helper()
	cfg := model.Default()
	cfg.Nodes = nodes
	cl, err := New(Options{
		Config: cfg, Mode: mode, Pages: 2, Locks: 1,
		Body: func(th *Thread) { th.Compute(10_000_000); th.Barrier() },
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// forgedDir is a directory that lies about one replica slot of one item
// once armed — a stand-in for a Rehome bug. With bump set the lie comes
// with an epoch increment, as a real (buggy) Rehome's would.
type forgedDir struct {
	proto.Directory
	armed      bool
	bump       bool
	item, slot int
	node       proto.NodeID
}

func (d *forgedDir) Replica(item, slot int) proto.NodeID {
	if d.armed && item == d.item && slot == d.slot {
		return d.node
	}
	return d.Directory.Replica(item, slot)
}

func (d *forgedDir) Secondary(item int) proto.NodeID { return d.Replica(item, 1) }

func (d *forgedDir) Epoch() int {
	if d.armed && d.bump {
		return d.Directory.Epoch() + 1
	}
	return d.Directory.Epoch()
}

// TestAuditorForgedViolations forges, one invariant at a time, the state
// that invariant exists to catch — through the funnels, the way a
// protocol bug would write it — and expects the incremental auditor to
// stop the run at the forging event with that invariant named, and the
// reference sweep to agree on the event.
func TestAuditorForgedViolations(t *testing.T) {
	cases := []struct {
		name      string
		mode      Mode
		invariant string
		// setup runs before the auditor is attached; forge is the
		// violating write, run as one engine event at t=500.
		setup func(cl *Cluster)
		forge func(cl *Cluster)
	}{
		{
			// A node transitions to holding a lock whose owner element
			// never reached the secondary home replica.
			name: "lock-replication", mode: ModeFT, invariant: "lock-replication",
			forge: func(cl *Cluster) {
				cl.nodes[(cl.lockHomes.Primary(0)+1)%cl.cfg.Nodes].setHeld(0, true)
			},
		},
		{
			name: "single-holder", mode: ModeBase, invariant: "single-holder",
			forge: func(cl *Cluster) {
				cl.nodes[1].setHeld(0, true)
				cl.nodes[2].setHeld(0, true)
			},
		},
		{
			// A writable page whose twin was dropped: its next commit
			// would have nothing to diff against.
			name: "page-state", mode: ModeFT, invariant: "page-state",
			forge: func(cl *Cluster) {
				pg := cl.nodes[1].pt.page(0)
				pg.ensureWorking()
				pg.setState(pWritable)
			},
		},
		{
			// A required version that goes backwards at a calm boundary:
			// the node would accept a stale copy of the page.
			name: "version-regression", mode: ModeFT, invariant: "page-transition",
			forge: func(cl *Cluster) { cl.nodes[1].pt.page(0).setReqVer(2, 3) },
			setup: func(cl *Cluster) {
				cl.eng.At(400, func() { cl.nodes[1].pt.page(0).setReqVer(2, 5) })
			},
		},
		{
			// A rehoming that puts both homes of a page on one node.
			name: "two-live-replicas", mode: ModeFT, invariant: "two-live-replicas",
			setup: func(cl *Cluster) {
				cl.pageHomes = &forgedDir{Directory: cl.pageHomes, bump: true, item: 1, slot: 1, node: cl.pageHomes.Primary(1)}
			},
			forge: func(cl *Cluster) { cl.pageHomes.(*forgedDir).armed = true },
		},
		{
			// A recovery that excludes the dead node without rehoming what
			// it held: no directory epoch moves, only membership does.
			name: "excluded-without-rehome", mode: ModeFT, invariant: "two-live-replicas",
			forge: func(cl *Cluster) {
				cl.KillNode(3)
				cl.exclude(cl.nodes[3])
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cl := idleCluster(t, tc.mode, 4)
			if tc.setup != nil {
				tc.setup(cl)
			}
			d := AttachAuditDiff(cl)
			var forgedAt int64
			cl.eng.At(500, func() {
				forgedAt = cl.eng.Events() + 1 // this callback is the next event to complete
				tc.forge(cl)
			})
			err := cl.Run()
			var v *AuditViolation
			if !errors.As(err, &v) {
				t.Fatalf("auditor missed the forged %s violation (err = %v)", tc.invariant, err)
			}
			if v.Invariant != tc.invariant {
				t.Fatalf("wrong violation: %v", v)
			}
			if v.Event != forgedAt {
				t.Fatalf("stopped at event %d, forged at event %d: %v", v.Event, forgedAt, v)
			}
			if d.RefEvent != forgedAt {
				t.Fatalf("reference sweep flagged event %d (%v), forged at %d", d.RefEvent, d.RefErr, forgedAt)
			}
			if err := d.Err(); err != nil {
				t.Fatal(err)
			}
			// The error carries its evidence: the event, and what it wrote.
			wroteNothing := tc.name == "two-live-replicas" // the forgery is inside the directory
			if !strings.Contains(err.Error(), "at event ") || (len(v.Touched) == 0 && !wroteNothing) {
				t.Fatalf("violation lacks evidence: %v", err)
			}
		})
	}
}

// TestAuditorRecoveryClampStaysSilent is the legal counterpart of the
// version-regression forgery: a survivor requires an interval of a node
// that then dies without ever having saved it, and recovery's global
// sync clamps the requirement back (§4.5.2) — possibly in the very event
// slice that completes the recovery, where the boundary is already calm.
// That regression of an excluded node's element must not trip the
// auditor, incremental or reference.
func TestAuditorRecoveryClampStaysSilent(t *testing.T) {
	// Every page is homed on nodes 0 and 1, so node 2 touches none.
	cfg := model.Default()
	cfg.Nodes = 4
	cl, err := New(Options{
		Config: cfg, Mode: ModeFT, Pages: 2 * pageRunLen, Locks: 1,
		HomeAssign: func(int) int { return 0 },
		Body:       func(th *Thread) { th.Compute(10_000_000); th.Barrier() },
	})
	if err != nil {
		t.Fatal(err)
	}
	d := AttachAuditDiff(cl)
	const victim = 3
	pg := cl.nodes[1].pt.page(0)
	cl.eng.At(400, func() { pg.setReqVer(victim, 5) })
	cl.eng.At(500, func() { cl.KillNode(victim) })
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if !cl.nodes[victim].excluded || cl.ProtoStats().Recoveries != 1 {
		t.Fatal("the kill was never recovered from")
	}
	if pg.reqAt(victim) != 0 {
		t.Fatalf("recovery left reqVer[%d] = %d, expected the clamp to 0", victim, pg.reqAt(victim))
	}
	if got := cl.aud.prevReq[1][0][victim]; got != 0 {
		t.Fatalf("the clamp bypassed the auditor: it still remembers %d", got)
	}
	// The clamp looks over every survivor's table; it must read the
	// never-notified pages, not materialise their vectors — or the pages.
	for _, n := range cl.nodes {
		for other := range n.pt.present() {
			if other != pg && other.reqVer != nil {
				t.Fatalf("node %d page %d: reqVer materialised without ever being notified", n.id, other.id)
			}
		}
	}
	for other := range cl.nodes[2].pt.present() {
		t.Fatalf("node 2 page %d: materialised without ever being touched", other.id)
	}
}

// TestAuditDifferentialFirstNoticeInRecovery covers the one place a
// required version can come into being outside an acquire or a barrier:
// node 0 commits an interval nobody hears of before node 3 dies, so the
// survivors' first-ever notice for that page — the write that turns its
// nil reqVer into a vector — is recovery's global sync. Both auditors
// must agree across it, and the touched set must hold the new element.
func TestAuditDifferentialFirstNoticeInRecovery(t *testing.T) {
	cfg := model.Default()
	cfg.Nodes = 4
	var pg *page
	atSync := int32(-1)
	cl, err := New(Options{
		Config: cfg, Mode: ModeFT, Pages: 2, Locks: 1,
		Body: func(th *Thread) {
			if th.ID() == 0 {
				th.Acquire(0)
				th.WriteU64(0, 1)
				th.Release(0)
			}
			th.Compute(10_000_000)
			th.Barrier()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	onEvent(cl, func(e obs.Event) {
		if e.Kind == obs.KRecoverySync {
			atSync = pg.reqAt(0)
		}
	})
	d := AttachAuditDiff(cl)
	pg = cl.nodes[1].pt.page(0)
	cl.eng.At(5_000_000, func() {
		if len(cl.nodes[0].intervals) != 1 || pg.reqVer != nil {
			t.Errorf("stage not set at the kill: node 0 committed %d intervals, node 1 reqVer = %v", len(cl.nodes[0].intervals), pg.reqVer)
		}
		cl.KillNode(3)
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Verify(nil); err != nil {
		t.Fatal(err)
	}
	if cl.ProtoStats().Recoveries != 1 {
		t.Fatal("the kill was never recovered from")
	}
	if atSync != 1 {
		t.Fatalf("the global sync left node 1 requiring interval %d of node 0, want 1", atSync)
	}
	if prev := cl.aud.prevReq[1][0]; prev == nil || prev[0] != 1 {
		t.Fatalf("that write bypassed the funnel: the auditor remembers %v", prev)
	}
}

// TestAuditorPlacementTriggerSet pins the documented limit of the
// placement gate: a directory that changes an answer WITHOUT bumping its
// epoch (forbidden by the Directory contract) is not seen at the event
// that did it, but is caught at the next boundary that re-evaluates
// placement — here the calm edge of the next recovery.
func TestAuditorPlacementTriggerSet(t *testing.T) {
	cl := idleCluster(t, ModeFT, 4)
	fd := &forgedDir{Directory: cl.pageHomes, item: 1, slot: 1, node: cl.pageHomes.Primary(1)}
	cl.pageHomes = fd
	cl.EnableAuditor()
	victim := -1
	for i := range cl.nodes {
		if i != fd.node && i != fd.Directory.Replica(1, 1) {
			victim = i
		}
	}
	var forgedAt int64
	cl.eng.At(500, func() {
		forgedAt = cl.eng.Events() + 1
		fd.armed = true
	})
	cl.eng.At(1000, func() { cl.KillNode(victim) })
	err := cl.Run()
	var v *AuditViolation
	if !errors.As(err, &v) || v.Invariant != "two-live-replicas" {
		t.Fatalf("forged placement never caught (err = %v)", err)
	}
	if v.Event <= forgedAt {
		t.Fatalf("caught at event %d, forged at %d: an epoch-less change should not be visible that early", v.Event, forgedAt)
	}
	if cl.rec.pending || !cl.nodes[victim].excluded {
		t.Fatalf("caught at event %d, before the recovery's calm edge: %v", v.Event, v)
	}
}

// TestAuditorFunnelBypassDetected is the negative control for the
// completeness check: an audited field written directly, not through
// its funnel, never reaches the touched set, and the differential must
// say so — otherwise a future write site added without its funnel would
// silently weaken the auditor.
func TestAuditorFunnelBypassDetected(t *testing.T) {
	cases := []struct {
		name, want string
		write      func(cl *Cluster)
	}{
		{"page-state", "node 1 page 0 structure", func(cl *Cluster) {
			pg := cl.nodes[1].pt.page(0)
			pg.working = make([]byte, cl.cfg.PageSize)
			pg.state = pReadOnly
		}},
		{"reqVer", "node 1 page 0 reqVer[2]", func(cl *Cluster) {
			// reqVer is nil until its first funnel write: materialise it
			// the way setReqVer would, then write past the funnel.
			pg := cl.nodes[1].pt.page(0)
			pg.reqVer = proto.NewVector(cl.cfg.Nodes)
			pg.reqVer[2] = 7
		}},
		{"held", "node 1 lock 0", func(cl *Cluster) { cl.nodes[1].lockState(0).held = true }},
		{"membership", "rec.pending", func(cl *Cluster) { cl.rec.pending = true }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cl := idleCluster(t, ModeBase, 4)
			d := AttachAuditDiff(cl)
			cl.eng.At(500, func() { tc.write(cl) })
			cl.eng.At(600, func() { cl.eng.Stop() })
			if err := cl.Run(); err != nil {
				t.Fatal(err)
			}
			if err := d.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("bypassing write not reported (want %q): %v", tc.want, err)
			}
		})
	}
}

// TestAuditBoundaryAllocFree is the allocation gate for the auditor's
// steady state: a boundary with nothing touched, and one with a single
// touched page, version element and lock, allocate nothing at degree 2
// and 3. (The sweep this replaced allocated a replica slice per page and
// per lock per event.)
func TestAuditBoundaryAllocFree(t *testing.T) {
	for _, degree := range []int{2, 3} {
		cfg := model.Default()
		cfg.Nodes = 6
		cfg.ReplicaDegree = degree
		cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 8, Locks: 2, Body: counterBody(2)})
		if err != nil {
			t.Fatal(err)
		}
		cl.EnableAuditor()
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		a, n := cl.aud, cl.nodes[1]
		pg := n.pt.page(0)
		if got := testing.AllocsPerRun(100, a.afterEvent); got != 0 {
			t.Errorf("degree %d: empty boundary allocates %.1f objects", degree, got)
		}
		touch := func() {
			pg.setState(pg.state)
			pg.setReqVer(0, pg.reqAt(0))
			n.setHeld(0, n.lockState(0).held)
			a.afterEvent()
		}
		if got := testing.AllocsPerRun(100, touch); got != 0 {
			t.Errorf("degree %d: one-item boundary allocates %.1f objects", degree, got)
		}
		if cl.auditErr != nil {
			t.Fatal(cl.auditErr)
		}
	}
}
