package svm

import (
	"fmt"
	"iter"

	"ftsvm/internal/proto"
)

// refAuditor is the auditor as it was before it became incremental: a
// full sweep of every node, page and lock after every event, reading the
// cluster directly and keeping its own history. It is what "every
// invariant at every boundary" means; AuditDiff runs it beside the
// incremental auditor to show the touched-set evaluation loses nothing.
type refAuditor struct {
	cl       *Cluster
	prevHeld [][]bool             // [node][lock]: node owned lock at last boundary
	prevReq  [][]proto.VectorTime // [node][page]: reqVer at last boundary
	wasCalm  bool
}

func newRefAuditor(cl *Cluster) *refAuditor {
	r := &refAuditor{cl: cl, wasCalm: true}
	r.prevHeld = make([][]bool, cl.cfg.Nodes)
	r.prevReq = make([][]proto.VectorTime, cl.cfg.Nodes)
	for i := range r.prevHeld {
		r.prevHeld[i] = make([]bool, cl.lockHomes.Items())
		r.prevReq[i] = make([]proto.VectorTime, cl.pageHomes.Items())
		for p := range r.prevReq[i] {
			r.prevReq[i][p] = proto.NewVector(cl.cfg.Nodes)
		}
	}
	return r
}

// every yields all npages pages of the table in page order, for the sweeps
// that are the reference because they skip nothing. It materialises none:
// an absent page is yielded as the zero page it stands for.
func (pt *pageTable) every() iter.Seq2[int, *page] {
	return func(yield func(int, *page) bool) {
		var zero page
		for pid := range pt.npages {
			zero = page{id: pid, pt: pt}
			pg := &zero
			if r := pt.runs[pid>>pageRunShift]; r != nil {
				pg = &r[pid&(pageRunLen-1)]
			}
			if !yield(pid, pg) {
				return
			}
		}
	}
}

func (r *refAuditor) check() error {
	if err := r.checkLocks(); err != nil {
		return err
	}
	return r.checkPages()
}

func (r *refAuditor) limbo() bool {
	for _, n := range r.cl.nodes {
		if n.dead && !n.excluded {
			return true
		}
	}
	return false
}

func (r *refAuditor) checkLocks() error {
	cl := r.cl
	steady := cl.opt.Mode == ModeFT && !cl.rec.pending && !r.limbo()
	for l := 0; l < cl.lockHomes.Items(); l++ {
		holder := -1
		for _, n := range cl.nodes {
			if n.dead {
				r.prevHeld[n.id][l] = false
				continue
			}
			ol := n.owned[l]
			held := ol != nil && ol.held
			if held {
				if holder >= 0 {
					return fmt.Errorf("single-holder: lock %d held by nodes %d and %d", l, holder, n.id)
				}
				holder = n.id
				if steady && !r.prevHeld[n.id][l] && cl.lockHomes.Primary(l) != n.id {
					for s := 1; s < cl.lockHomes.Degree(); s++ {
						sec := cl.lockHomes.Replica(l, s)
						lh := cl.nodes[sec].lockHomesState[l]
						if lh == nil || !lh.vec[n.id] {
							return fmt.Errorf("lock-replication: lock %d granted to node %d before its owner element reached secondary home %d", l, n.id, sec)
						}
					}
				}
			}
			r.prevHeld[n.id][l] = held
		}
		if steady {
			rs := homesOf(cl.lockHomes, l)
			for a := range rs {
				for b := a + 1; b < len(rs); b++ {
					if rs[a] == rs[b] {
						return fmt.Errorf("two-live-replicas: lock %d has two homes on node %d", l, rs[a])
					}
				}
			}
			for _, h := range rs {
				if cl.nodes[h].dead {
					return fmt.Errorf("two-live-replicas: lock %d homed on dead node %d", l, h)
				}
				if cl.nodes[h].lockHomesState[l] == nil {
					return fmt.Errorf("two-live-replicas: lock %d has no replica state at home %d", l, h)
				}
			}
		}
	}
	return nil
}

func (r *refAuditor) checkPages() error {
	cl := r.cl
	calm := !cl.rec.pending && !r.limbo()
	edge := calm && !r.wasCalm
	r.wasCalm = calm
	steady := cl.opt.Mode == ModeFT && calm
	for _, n := range cl.nodes {
		if n.dead {
			continue
		}
		for pid, pg := range n.pt.every() {
			switch pg.state {
			case pWritable:
				if pg.twin == nil || pg.working == nil {
					return fmt.Errorf("page-state: node %d page %d writable without twin/working", n.id, pid)
				}
			case pReadOnly:
				if pg.working == nil {
					return fmt.Errorf("page-state: node %d page %d read-only without working copy", n.id, pid)
				}
			}
			if pg.dirtyWorking != nil && (pg.dirtyTwin == nil || pg.state != pInvalid) {
				return fmt.Errorf("page-state: node %d page %d has an inconsistent dirty stash (state=%d)", n.id, pid, pg.state)
			}
			if (pg.twin != nil) != (len(pg.dirtyMask) > 0) {
				return fmt.Errorf("page-state: node %d page %d twin/dirty-mask mismatch", n.id, pid)
			}
			if (pg.dirtyTwin != nil) != (len(pg.stashMask) > 0) {
				return fmt.Errorf("page-state: node %d page %d stashed twin/mask mismatch", n.id, pid)
			}
			prev := r.prevReq[n.id][pid]
			for src := range prev {
				v := pg.reqAt(src) // a nil reqVer is the zero vector
				if v < prev[src] && calm && !(edge && cl.nodes[src].excluded) {
					return fmt.Errorf("page-transition: node %d page %d required version regressed (node %d element %d -> %d)",
						n.id, pid, src, prev[src], v)
				}
				prev[src] = v
			}
		}
	}
	if steady {
		for p := 0; p < cl.pageHomes.Items(); p++ {
			rs := homesOf(cl.pageHomes, p)
			for a := range rs {
				if cl.nodes[rs[a]].dead {
					return fmt.Errorf("two-live-replicas: page %d homed on a dead node (%v)", p, rs)
				}
				for b := a + 1; b < len(rs); b++ {
					if rs[a] == rs[b] {
						return fmt.Errorf("two-live-replicas: page %d has two homes on node %d", p, rs[a])
					}
				}
			}
		}
	}
	return nil
}

// AuditDiff runs the reference sweep and the incremental auditor side by
// side on one cluster and records, boundary by boundary,
//
//   - agreement: both pass and remember the same history, or both report
//     their first violation at the same event;
//   - completeness: every (node, page) and (node, lock) whose audited
//     fields differ from the previous boundary, and every membership
//     write, is in that boundary's touched set — the premise under which
//     checking only touched items is as strong as the sweep.
//
// Exported (from a _test file) so the external-package matrix test can
// attach it to clusters built by harness and explore.
type AuditDiff struct {
	cl  *Cluster
	ref *refAuditor

	Boundaries int64
	RefEvent   int64 // event of the reference's first violation, 0 if none
	RefErr     error
	// Disagree is the first boundary at which exactly one of the two
	// reported a violation, or at which their histories differ.
	Disagree string
	// Missed lists changed-but-untouched items (capped).
	Missed []string

	pageSig [][]uint8 // [node][page]: state and nil-ness of the audited buffers
	reqVer  [][]int32 // [node][page*N+src]
	lockSig [][]uint8 // [node][lock]: held, home replica state present
	member  []uint8   // [node]: dead, excluded
	pending bool

	verSeen map[verTouch]bool
	lkSeen  map[lockTouch]bool
}

// AttachAuditDiff enables the incremental auditor on cl and interposes
// the reference sweep and the completeness check at every boundary. Call
// before Run (and before anything else calls EnableAuditor, which is then
// a no-op).
func AttachAuditDiff(cl *Cluster) *AuditDiff {
	if cl.aud != nil {
		panic("AttachAuditDiff: auditor already attached")
	}
	cl.EnableAuditor()
	d := &AuditDiff{cl: cl, ref: newRefAuditor(cl), verSeen: map[verTouch]bool{}, lkSeen: map[lockTouch]bool{}}
	nn := cl.cfg.Nodes
	d.pageSig = make([][]uint8, nn)
	d.reqVer = make([][]int32, nn)
	d.lockSig = make([][]uint8, nn)
	d.member = make([]uint8, nn)
	for i, n := range cl.nodes {
		d.pageSig[i] = make([]uint8, n.pt.npages)
		d.reqVer[i] = make([]int32, n.pt.npages*nn)
		d.lockSig[i] = make([]uint8, cl.lockHomes.Items())
	}
	d.snapshot(false)
	cl.eng.SetAfterEvent(d.afterEvent)
	return d
}

// Err summarizes the run: nil when the two auditors agreed at every
// boundary and no audited write bypassed the funnels.
func (d *AuditDiff) Err() error {
	switch {
	case len(d.Missed) > 0: // the root cause when both are set
		return fmt.Errorf("audited fields changed outside the touched set: %v", d.Missed)
	case d.Disagree != "":
		return fmt.Errorf("auditors disagree: %s", d.Disagree)
	}
	return nil
}

func (d *AuditDiff) afterEvent() {
	cl, a := d.cl, d.cl.aud
	if d.RefErr != nil || cl.auditErr != nil {
		return
	}
	d.Boundaries++
	d.snapshot(true)
	if err := d.ref.check(); err != nil {
		d.RefErr, d.RefEvent = err, cl.eng.Events()
	}
	a.afterEvent()
	if (d.RefErr != nil) != (cl.auditErr != nil) {
		d.Disagree = fmt.Sprintf("at event %d reference says %v, incremental says %v", cl.eng.Events(), d.RefErr, cl.auditErr)
	} else if d.RefErr == nil {
		d.Disagree = d.compareHistory()
	}
	if d.Disagree != "" {
		cl.eng.Stop()
	}
}

// compareHistory checks that what the incremental auditor remembers from
// this boundary — who holds which lock, the holder counts, the calm flag
// and limbo counter, the last seen required versions — is what the sweep
// remembers. In a run with no violation this is the agreement that
// carries information: the next boundary's verdicts are computed from it.
func (d *AuditDiff) compareHistory() string {
	cl, a, r := d.cl, d.cl.aud, d.ref
	at := fmt.Sprintf("after event %d: ", cl.eng.Events())
	if a.wasCalm != r.wasCalm || (a.limbo > 0) != r.limbo() {
		return at + fmt.Sprintf("calm=%v limbo=%d, reference calm=%v limbo=%v", a.wasCalm, a.limbo, r.wasCalm, r.limbo())
	}
	for l := range a.holders {
		count := int32(0)
		for i := range cl.nodes {
			if a.held[i][l] != r.prevHeld[i][l] {
				return at + fmt.Sprintf("held[n%d][l%d]=%v, reference %v", i, l, a.held[i][l], r.prevHeld[i][l])
			}
			if a.held[i][l] {
				count++
			}
		}
		if a.holders[l] != count {
			return at + fmt.Sprintf("holders[l%d]=%d, %d nodes hold it", l, a.holders[l], count)
		}
	}
	for i, n := range cl.nodes {
		if n.dead {
			continue
		}
		for pid := range n.pt.npages {
			prev, ref := a.prevReq[i][pid], r.prevReq[i][pid]
			for src, v := range ref {
				got := int32(0) // a nil history is the zero vector
				if prev != nil {
					got = prev[src]
				}
				if got != v {
					return at + fmt.Sprintf("prevReq[n%d][p%d][%d]=%d, reference %d", i, pid, src, got, v)
				}
			}
		}
	}
	return ""
}

func pageSigOf(pg *page) uint8 {
	sig := uint8(pg.state)
	for i, set := range [...]bool{pg.working != nil, pg.twin != nil, pg.dirtyMask != nil,
		pg.dirtyTwin != nil, pg.dirtyWorking != nil, pg.stashMask != nil} {
		if set {
			sig |= 4 << i
		}
	}
	return sig
}

// snapshot re-reads every audited field, and with verify set reports the
// ones that changed since the last call without being in the incremental
// auditor's touched set.
func (d *AuditDiff) snapshot(verify bool) {
	cl, a := d.cl, d.cl.aud
	miss := func(format string, args ...any) {
		if verify && len(d.Missed) < 8 {
			d.Missed = append(d.Missed, fmt.Sprintf("event %d: ", cl.eng.Events())+fmt.Sprintf(format, args...))
		}
	}
	clear(d.verSeen)
	clear(d.lkSeen)
	for _, t := range a.vers {
		d.verSeen[t] = true
	}
	for _, t := range a.locks {
		d.lkSeen[t] = true
	}
	nn := cl.cfg.Nodes
	if cl.rec.pending != d.pending {
		d.pending = cl.rec.pending
		if !a.memberDirty {
			miss("rec.pending")
		}
	}
	for i, n := range cl.nodes {
		var m uint8
		if n.dead {
			m |= 1
		}
		if n.excluded {
			m |= 2
		}
		if m != d.member[i] {
			d.member[i] = m
			if !a.memberDirty {
				miss("node %d dead/excluded", i)
			}
		}
		if n.dead {
			continue // a dead node's state is not audited
		}
		for pid, pg := range n.pt.every() {
			if sig := pageSigOf(pg); sig != d.pageSig[i][pid] {
				d.pageSig[i][pid] = sig
				if !pg.audTouched {
					miss("node %d page %d structure", i, pid)
				}
			}
			prev := d.reqVer[i][pid*nn : (pid+1)*nn]
			for src := range prev {
				if v := pg.reqAt(src); v != prev[src] { // a nil reqVer is the zero vector
					prev[src] = v
					if !d.verSeen[verTouch{pg, int32(src)}] {
						miss("node %d page %d reqVer[%d]", i, pid, src)
					}
				}
			}
		}
		for l := range d.lockSig[i] {
			var sig uint8
			if ol := n.owned[l]; ol != nil && ol.held {
				sig |= 1
			}
			if n.lockHomesState[l] != nil {
				sig |= 2
			}
			if sig != d.lockSig[i][l] {
				d.lockSig[i][l] = sig
				if !d.lkSeen[lockTouch{int32(i), int32(l)}] {
					miss("node %d lock %d", i, l)
				}
			}
		}
	}
}
