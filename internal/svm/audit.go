package svm

import (
	"fmt"
	"strings"

	"ftsvm/internal/proto"
)

// auditor is the online invariant checker: an opt-in hook at the
// engine's event boundaries that asserts, after every simulated event,
// the protocol invariants the paper's fault tolerance rests on. A
// violation stops the engine at the faulting event and surfaces from
// Cluster.Run — instead of a replica divergence being discovered by a
// post-run VerifyReplicas three barriers after the bug.
//
// Invariants checked:
//
//   - single-holder: at most one live node owns any application lock,
//     under all three lock algorithms;
//   - lock-replication (ModeFT): when a node transitions to holding a
//     lock it acquired remotely, its owner element has already reached
//     the secondary home's vector. Both the polling and the NIC lock
//     satisfy this through the per-sender FIFO of the network (the
//     replication is enqueued before the message whose delivery grants
//     the lock), so recovery from either home replica never resurrects
//     a grant-in-flight as a free lock;
//   - page-state structure: a writable page has a twin and a working
//     copy, a read-only page has a working copy, and stashed dirty
//     copies (false sharing) come in pairs on invalid pages;
//   - page-version monotonicity: a page's required version vector never
//     regresses outside recovery (the only legal decrease is recovery's
//     roll-back of the dead node's element). Several page-state
//     transitions can coalesce inside one event — a fault and the
//     following write promotion run in a single process slice — so
//     per-state transition edges are not observable at event
//     boundaries, but a version regression always is;
//   - two-live-replicas (ModeFT, outside recovery): every page's and
//     every lock's k homes are distinct live nodes and the lock
//     replicas exist at all of them.
//
// The check is incremental. A boundary costs O(items touched by the
// event), not O(nodes x (pages + locks)), under this touch contract:
//
//   - every field the per-item invariants read — page.state, working,
//     twin, dirtyMask, dirtyTwin, dirtyWorking, stashMask, the elements
//     of reqVer; ownedLock.held; node.lockHomesState[l] — is written
//     only through its funnel (pagetable.go, locks.go, initLockHome),
//     which appends the item to this boundary's touched set. An
//     untouched item still satisfies whatever it satisfied at the
//     previous boundary, so only touched items are re-checked;
//   - placement (two-live-replicas) is a pure function of the directory
//     between Rehome calls, of node.dead, and of the steady gate
//     (!rec.pending, no node dead-but-not-excluded). It is re-evaluated
//     only at a boundary where a directory epoch moved or one of
//     node.dead / node.excluded / rec.pending was written
//     (Cluster.membershipChanged), plus per lock when that lock's
//     replica state was touched. A directory that changes an answer
//     without bumping its epoch is outside the contract: it is caught
//     at the next such boundary, not at the event that did it.
//
// audit_ref_test.go keeps the full sweep as a reference and checks, over
// healthy and failure runs, that both agree at every boundary and that
// every (node, item) whose audited fields changed was in the touched set.
type auditor struct {
	cl *Cluster

	// The current boundary's touched set, appended by the funnels and
	// drained by afterEvent. pages is deduplicated (page.audTouched);
	// vers and locks may repeat an entry, which re-checks idempotently.
	pages       []*page     // structure fields written
	vers        []verTouch  // reqVer elements written
	locks       []lockTouch // ownedLock.held or lockHomesState[l] written
	memberDirty bool        // node.dead, node.excluded or rec.pending written

	held    [][]bool // [node][lock]: live node owned lock at last boundary
	holders []int32  // [lock]: number of live nodes owning it
	// prevReq ([node][page]: reqVer at the last boundary) backs version
	// monotonicity. The per-page vectors are allocated at the page's
	// first reqVer write: a nil entry means "never written", equivalent
	// to the zero vector it lazily becomes (reqVer starts at zero and
	// never goes below).
	prevReq [][]proto.VectorTime
	// limbo counts nodes that are dead but not yet excluded: the window
	// between a kill and the completed recovery, during which home maps
	// still reference the dead node and replica invariants are
	// legitimately broken (that is what recovery repairs).
	limbo int
	// Directory epochs at the last placement evaluation.
	pageEpoch, lockEpoch int
	// wasCalm is the calm flag at the previous boundary, so a boundary
	// can recognize that it completes a recovery (see checkVersions).
	wasCalm bool
}

type verTouch struct {
	pg  *page
	src int32
}

type lockTouch struct{ node, lock int32 }

// AuditViolation is the auditor's error: the invariant that broke, where
// and at which event, and what that event had written.
type AuditViolation struct {
	Event     int64  // ordinal of the violating event (Engine.Events())
	TimeNs    int64  // virtual time of that event
	Invariant string // "single-holder", "lock-replication", "page-state", "page-transition", "two-live-replicas"
	Node      int    // node whose state broke it; -1 for a placement violation
	Item      string // "page 3", "lock 0"
	Detail    string
	// Touched is the event's touched set ("n1/p3", "n0/p3.ver[2]",
	// "n2/l0"), capped at maxTouchedShown entries plus a count.
	Touched []string
}

const maxTouchedShown = 16

func (v *AuditViolation) Error() string {
	where := v.Item
	if v.Node >= 0 {
		where = fmt.Sprintf("node %d %s", v.Node, v.Item)
	}
	return fmt.Sprintf("svm: invariant violation at event %d (t=%dns): %s: %s: %s [touched: %s]",
		v.Event, v.TimeNs, v.Invariant, where, v.Detail, strings.Join(v.Touched, " "))
}

// EnableAuditor attaches the online invariant auditor: every invariant,
// after every event. Call before Run; a second call is a no-op.
func (cl *Cluster) EnableAuditor() {
	if cl.aud != nil {
		return
	}
	// memberDirty makes the first boundary count limbo and check the
	// initial placement.
	a := &auditor{cl: cl, wasCalm: true, memberDirty: true}
	a.held = make([][]bool, cl.cfg.Nodes)
	a.prevReq = make([][]proto.VectorTime, cl.cfg.Nodes)
	for i := range a.held {
		a.held[i] = make([]bool, cl.lockHomes.Items())
		a.prevReq[i] = make([]proto.VectorTime, cl.pageHomes.Items())
	}
	a.holders = make([]int32, cl.lockHomes.Items())
	cl.aud = a
	for _, n := range cl.nodes {
		n.pt.aud = a
	}
	cl.eng.SetAfterEvent(a.afterEvent)
}

// afterEvent runs in engine context after every executed event. It
// performs no scheduling and charges no virtual time; on the first
// violation it records the error and stops the engine.
func (a *auditor) afterEvent() {
	cl := a.cl
	if cl.auditErr != nil {
		return
	}
	member := a.memberDirty
	if member {
		a.recountMembers()
	}
	calm := !cl.rec.pending && a.limbo == 0 // no recovery in flight
	edge := calm && !a.wasCalm
	a.wasCalm = calm
	steady := calm && cl.opt.Mode == ModeFT

	var v *AuditViolation
	if len(a.locks) > 0 {
		v = a.checkLocks(steady)
	}
	if v == nil && len(a.pages) > 0 {
		v = a.checkPages()
	}
	if v == nil && len(a.vers) > 0 {
		v = a.checkVersions(calm, edge)
	}
	if v == nil && steady {
		pe, le := cl.pageHomes.Epoch(), cl.lockHomes.Epoch()
		if member || pe != a.pageEpoch || le != a.lockEpoch {
			a.pageEpoch, a.lockEpoch = pe, le
			v = a.checkPlacement()
		}
	}
	if v != nil {
		a.fail(v)
		return
	}
	for _, pg := range a.pages {
		pg.audTouched = false
	}
	a.pages, a.vers, a.locks, a.memberDirty = a.pages[:0], a.vers[:0], a.locks[:0], false
}

func (a *auditor) fail(v *AuditViolation) {
	v.Event, v.TimeNs = a.cl.eng.Events(), a.cl.eng.Now()
	v.Touched = a.touchedStrings()
	a.cl.auditErr = v
	a.cl.eng.Stop()
}

// touchedStrings renders the boundary's touched set for a violation.
func (a *auditor) touchedStrings() []string {
	var out []string
	for _, pg := range a.pages {
		out = append(out, fmt.Sprintf("n%d/p%d", pg.pt.node.id, pg.id))
	}
	for _, t := range a.vers {
		out = append(out, fmt.Sprintf("n%d/p%d.ver[%d]", t.pg.pt.node.id, t.pg.id, t.src))
	}
	for _, t := range a.locks {
		out = append(out, fmt.Sprintf("n%d/l%d", t.node, t.lock))
	}
	if a.memberDirty {
		out = append(out, "membership")
	}
	if extra := len(out) - maxTouchedShown; extra > 0 {
		out = append(out[:maxTouchedShown], fmt.Sprintf("(+%d more)", extra))
	}
	return out
}

// recountMembers re-derives what the auditor keeps about membership after
// a write to node.dead, node.excluded or rec.pending: the limbo count,
// and that a dead node owns no lock.
func (a *auditor) recountMembers() {
	a.limbo = 0
	for _, n := range a.cl.nodes {
		if !n.dead {
			continue
		}
		if !n.excluded {
			a.limbo++
		}
		for l, h := range a.held[n.id] {
			if h {
				a.held[n.id][l] = false
				a.holders[l]--
			}
		}
	}
}

// checkLocks re-checks the touched (node, lock) pairs: ownership
// transitions feed the per-lock holder count and the lock-replication
// check; a touched lock is also re-checked for placement, which covers
// writes to its replica state.
func (a *auditor) checkLocks(steady bool) *AuditViolation {
	cl := a.cl
	for _, t := range a.locks {
		n, l := cl.nodes[t.node], int(t.lock)
		if n.dead {
			continue // recountMembers already dropped its locks
		}
		ol := n.owned[l]
		held := ol != nil && ol.held
		if held == a.held[n.id][l] {
			continue
		}
		a.held[n.id][l] = held
		if !held {
			a.holders[l]--
			continue
		}
		a.holders[l]++
		if steady && cl.lockHomes.Primary(l) != n.id {
			// Newly granted from a remote primary home: the owner
			// element must already sit in every secondary replica
			// (see the type comment above).
			for s := 1; s < cl.lockHomes.Degree(); s++ {
				sec := cl.lockHomes.Replica(l, s)
				lh := cl.nodes[sec].lockHomesState[l]
				if lh == nil || !lh.vec[n.id] {
					return &AuditViolation{Invariant: "lock-replication", Node: n.id, Item: fmt.Sprintf("lock %d", l),
						Detail: fmt.Sprintf("granted before its owner element reached secondary home %d", sec)}
				}
			}
		}
	}
	// Counts are final only once every transition of the boundary is in:
	// a release and the matching grant may share one event.
	for _, t := range a.locks {
		l := int(t.lock)
		if a.holders[l] > 1 {
			return &AuditViolation{Invariant: "single-holder", Node: int(t.node), Item: fmt.Sprintf("lock %d", l),
				Detail: fmt.Sprintf("held by nodes %v", cl.auditHolders(l))}
		}
		if steady {
			if v := a.lockPlacement(l); v != nil {
				return v
			}
		}
	}
	return nil
}

// checkPages re-checks page-state structure on the touched pages.
func (a *auditor) checkPages() *AuditViolation {
	for _, pg := range a.pages {
		n := pg.pt.node
		if n.dead {
			continue
		}
		bad := ""
		switch {
		case pg.state == pWritable && (pg.twin == nil || pg.working == nil):
			bad = "writable without twin/working"
		case pg.state == pReadOnly && pg.working == nil:
			bad = "read-only without working copy"
		case pg.dirtyWorking != nil && (pg.dirtyTwin == nil || pg.state != pInvalid):
			bad = fmt.Sprintf("has an inconsistent dirty stash (state=%d)", pg.state)
		// A twin and its dirty mask travel together (a partial twin is
		// meaningless without the mask saying which chunks are valid),
		// and vice versa. A mask buffer is never empty.
		case (pg.twin != nil) != (len(pg.dirtyMask) > 0):
			bad = fmt.Sprintf("twin/dirty-mask mismatch (twin=%v mask=%v)", pg.twin != nil, len(pg.dirtyMask) > 0)
		case (pg.dirtyTwin != nil) != (len(pg.stashMask) > 0):
			bad = fmt.Sprintf("stashed twin/mask mismatch (twin=%v mask=%v)", pg.dirtyTwin != nil, len(pg.stashMask) > 0)
		}
		if bad != "" {
			return &AuditViolation{Invariant: "page-state", Node: n.id, Item: fmt.Sprintf("page %d", pg.id), Detail: bad}
		}
	}
	return nil
}

// checkVersions re-checks version monotonicity on the touched reqVer
// elements. Regressions are legal only inside recovery (the roll-back of
// the dead node's element, §4.5.2). The event slice that completes a
// recovery can also contain that clamp (globalSync mutates state without
// yielding, and migrateThreads waits on nothing when the victim's threads
// all finished), so the first boundary at which it is observable may
// already be calm: a regression of an excluded node's element is forgiven
// at the not-calm -> calm edge only; every other element, and every later
// calm boundary, stays armed.
func (a *auditor) checkVersions(calm, edge bool) *AuditViolation {
	cl := a.cl
	for _, t := range a.vers {
		pg, src := t.pg, int(t.src)
		n := pg.pt.node
		if n.dead {
			continue
		}
		prev := a.prevReq[n.id][pg.id]
		if prev == nil {
			prev = proto.NewVector(cl.cfg.Nodes)
			a.prevReq[n.id][pg.id] = prev
		}
		v := pg.reqAt(src)
		if v < prev[src] && calm && !(edge && cl.nodes[src].excluded) {
			return &AuditViolation{Invariant: "page-transition", Node: n.id, Item: fmt.Sprintf("page %d", pg.id),
				Detail: fmt.Sprintf("required version regressed (node %d element %d -> %d)", src, prev[src], v)}
		}
		prev[src] = v
	}
	return nil
}

// checkPlacement re-evaluates two-live-replicas for every lock and page.
func (a *auditor) checkPlacement() *AuditViolation {
	cl := a.cl
	for l := 0; l < cl.lockHomes.Items(); l++ {
		if v := a.lockPlacement(l); v != nil {
			return v
		}
	}
	for p := 0; p < cl.pageHomes.Items(); p++ {
		if v := a.placement(cl.pageHomes, p, "page"); v != nil {
			return v
		}
	}
	return nil
}

func (a *auditor) lockPlacement(l int) *AuditViolation {
	cl := a.cl
	if v := a.placement(cl.lockHomes, l, "lock"); v != nil {
		return v
	}
	for s := 0; s < cl.lockHomes.Degree(); s++ {
		if h := cl.lockHomes.Replica(l, s); cl.nodes[h].lockHomesState[l] == nil {
			return &AuditViolation{Invariant: "two-live-replicas", Node: -1, Item: fmt.Sprintf("lock %d", l),
				Detail: fmt.Sprintf("no replica state at home %d", h)}
		}
	}
	return nil
}

// placement checks that an item's k homes are distinct live nodes.
func (a *auditor) placement(dir proto.Directory, item int, kind string) *AuditViolation {
	bad := func(format string, h int) *AuditViolation {
		return &AuditViolation{Invariant: "two-live-replicas", Node: -1, Item: fmt.Sprintf("%s %d", kind, item),
			Detail: fmt.Sprintf(format, h) + fmt.Sprintf(" (homes %v)", homesOf(dir, item))}
	}
	deg := dir.Degree()
	for s := 0; s < deg; s++ {
		h := dir.Replica(item, s)
		if a.cl.nodes[h].dead {
			return bad("homed on dead node %d", h)
		}
		for s2 := s + 1; s2 < deg; s2++ {
			if dir.Replica(item, s2) == h {
				return bad("two homes on node %d", h)
			}
		}
	}
	return nil
}

// auditHolders returns the live nodes currently owning lock l.
func (cl *Cluster) auditHolders(l int) []int {
	var out []int
	for _, n := range cl.nodes {
		if n.dead {
			continue
		}
		if ol := n.owned[l]; ol != nil && ol.held {
			out = append(out, n.id)
		}
	}
	return out
}
