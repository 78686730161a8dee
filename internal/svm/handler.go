package svm

import (
	"fmt"

	"ftsvm/internal/mem"
	"ftsvm/internal/proto"
	"ftsvm/internal/vmmc"
)

// handle is the node's message handler. It runs in engine context (the
// simulated network interface applies incoming data without involving the
// node's processors) and never blocks: replies that must wait for a page
// version are deferred on the page's waiter list.
func (n *node) handle(d *vmmc.Delivery) {
	if n.dead {
		return
	}
	switch m := d.Payload.(type) {
	case *diffMsg:
		n.applyDiffMsg(m)
	case *diffBatch:
		for _, it := range m.Items {
			n.applyDiffMsg(it)
		}
	case *fetchReq:
		n.handleFetch(d, m)
	case *updatesReq:
		m.Reply.Lists = n.intervalRange(m.From, m.To)
		d.Reply(&m.Reply, updatesWire(m.Reply.Lists))
	case *saveTSMsg:
		n.storeSavedTS(m)
	case *ckptMsg:
		n.ckpts.Put(m.ThreadID, m.Snap)
		n.ckptHome[m.ThreadID] = m.HomeNode
	case *lockSet, *lockClear, *lockRelease, *qlAcquire, *qlForward, *qlGrant:
		n.applyLockMsg(d.Src, m)
	case *nicTestSet:
		rep := n.nicTestAndSet(m)
		d.Reply(rep, n.msgWire(d.Src, rep))
	case *lockRead:
		rep, size := n.serveLockRead(d.Src, m)
		d.Reply(rep, size)
	case *barArrive:
		n.masterArrive(m)
	case *barRelease:
		n.deliverBarRelease(m)
	case *savedReq:
		rep := n.savedReplyFor(m.Dead)
		d.Reply(rep, n.msgWire(d.Src, rep))
	case *lockRebuild:
		n.installLock(m)
	default:
		panic(fmt.Sprintf("svm: node %d: unknown message %T", n.id, d.Payload))
	}
}

// serveLockRead fills reader's envelope with the primary home's answer to
// its read of lock m.Lock and returns it with its wire size. The envelope
// carries the stored timestamp only when it grants, so the delta codec
// costs the home's live lh.vt here, not through msgWire, and under
// msgWire's contract: exactly once per reply handed to the NIC. recost
// copies the vector into the (home, reader) link context, so charging for
// it needs no clone.
func (n *node) serveLockRead(reader int, m *lockRead) (*lockReadReply, int) {
	lh := n.lockHomesState[m.Lock]
	if lh == nil {
		// Not (yet) the home — can happen transiently around rehoming;
		// answer with an empty vector so the acquirer retries.
		n.initLockHome(m.Lock)
		lh = n.lockHomesState[m.Lock]
	}
	rep := lh.readReply(reader, m.Reply)
	return rep, rep.wireBytes() + n.recost(reader, lh.vt)
}

// applyDiffMsg lands a diff at a home copy.
func (n *node) applyDiffMsg(m *diffMsg) {
	pg := n.pt.page(m.Page)
	cfg := n.cl.cfg
	switch m.Phase {
	case 0: // base protocol: the working copy is the home copy
		buf := pg.ensureWorking()
		m.Diff.Apply(buf)
		// Keep concurrently-diffed local copies coherent so the home's own
		// diffs contain only its own modifications. A partial twin is
		// patched only inside its dirty chunks (clean chunks hold garbage
		// and snapshot later from the already-patched working copy).
		if pg.twin != nil {
			m.Diff.ApplyMasked(pg.twin, pg.dirtyMask)
		}
		if pg.dirtyWorking != nil {
			m.Diff.Apply(pg.dirtyWorking)
			m.Diff.ApplyMasked(pg.dirtyTwin, pg.stashMask)
		}
		if pg.baseVer == nil {
			pg.baseVer = n.newVec()
		}
		if pg.baseVer[m.Src] < m.Interval {
			pg.baseVer[m.Src] = m.Interval
		}
		pg.serveWaiters(pg.baseVer, buf, cfg.PageSize+64)
	case 1: // tentative copy at the secondary home
		if pg.tentative == nil {
			pg.tentative = n.getPageBufZero()
			pg.tentVer = n.newVec()
		}
		if m.Undo != nil {
			if pg.undoFrom == nil {
				pg.undoFrom = make(map[int]undoRec)
			}
			// The pre-image lives in the sender's release scratch, recycled
			// when its release ends: keep a copy, in the storage of the
			// record it replaces.
			rec := pg.undoFrom[m.Src]
			rec.interval = m.Interval
			rec.buf.Reset()
			rec.undo = mem.Diff{Page: m.Undo.Page, Runs: rec.buf.AppendClone(m.Undo.Runs)}
			pg.undoFrom[m.Src] = rec
		}
		pg.applyDiff(pg.tentative, pg.tentVer, m.Src, m.Interval, m.Diff)
	case 2: // committed copy at the primary home
		if pg.committed == nil {
			pg.committed = n.getPageBufZero()
			pg.commitVer = n.newVec()
		}
		pg.applyDiff(pg.committed, pg.commitVer, m.Src, m.Interval, m.Diff)
		pg.serveWaiters(pg.commitVer, pg.committed, cfg.PageSize+64)
	}
	pg.verGate.Broadcast()
}

// handleFetch serves (or defers) a remote page fetch.
func (n *node) handleFetch(d *vmmc.Delivery, m *fetchReq) {
	pg := n.pt.page(m.Page)
	var buf []byte
	var ver proto.VectorTime
	if n.cl.opt.Mode == ModeFT {
		if pg.committed == nil {
			// Newly promoted home whose replica has not arrived yet:
			// defer until recovery installs it.
			pg.committed = n.getPageBufZero()
			pg.commitVer = n.newVec()
		}
		buf, ver = pg.committed, pg.commitVer
	} else {
		buf, ver = pg.ensureWorking(), pg.baseVer
		if ver == nil {
			pg.baseVer = n.newVec()
			ver = pg.baseVer
		}
	}
	if ver.Covers(m.Need) {
		rep := m.fill(buf, ver)
		d.Reply(rep, n.msgWire(d.Src, rep))
		return
	}
	pg.waiters = append(pg.waiters, fetchWaiter{d: d, req: m})
}

// intervalRange returns this node's update lists for intervals [from, to],
// clamped to what exists, as a window into the interval log rather than a
// copy. The log is append-only and every receiver only reads the lists;
// the window's capacity ends at to, so an append to it cannot write into
// the log.
func (n *node) intervalRange(from, to int32) []proto.UpdateList {
	if from < 1 {
		from = 1
	}
	if to > int32(len(n.intervals)) {
		to = int32(len(n.intervals))
	}
	if to < from {
		return nil
	}
	return n.intervals[from-1 : to : to]
}

// storeSavedTS replicates a peer's end-of-phase-1 state: the timestamp,
// the interval's update list, the self-secondary diff stash, and the
// releasing thread's point-B checkpoint — one atomic deposit. The
// timestamp is the sender's immutable vector-time snapshot (vtSnapshot),
// so it is kept as it is: savedTS is replaced per deposit, never written
// in place, and its readers (savedReplyFor, fetchSavedState) only read it.
func (n *node) storeSavedTS(m *saveTSMsg) {
	n.savedTS[m.Node] = m.TS
	lists := n.savedLists[m.Node]
	if len(lists) == 0 || lists[len(lists)-1].Interval < m.List.Interval {
		n.savedLists[m.Node] = append(lists, m.List)
	}
	// Only the latest interval's stash matters: older intervals' phase 2
	// completed (their release finished before the next began). The stash
	// lives in the sender's release scratch: keep a copy, in the storage
	// of the one it replaces.
	if st := n.savedStash[m.Node]; st != nil {
		st.set(m.Stash)
	} else if len(m.Stash) > 0 {
		st = &diffCopy{}
		st.set(m.Stash)
		n.savedStash[m.Node] = st
	}
	if m.Snap.Blob != nil {
		n.ckpts.Put(m.CkptThread, m.Snap)
		n.ckptHome[m.CkptThread] = m.CkptHome
	}
}

// savedReplyFor packages the backup state held for a dead node. The
// timestamp is the stored snapshot itself (see storeSavedTS).
func (n *node) savedReplyFor(dead int) *savedReply {
	ts, ok := n.savedTS[dead]
	if !ok {
		return &savedReply{Have: false, TS: proto.NewVector(n.cl.cfg.Nodes)}
	}
	return &savedReply{Have: true, TS: ts, Lists: n.savedLists[dead]}
}

// installLock lands a recovery-time lock rebuild.
func (n *node) installLock(m *lockRebuild) {
	n.initLockHome(m.Lock)
	lh := n.lockHomesState[m.Lock]
	for i := range lh.vec {
		lh.vec[i] = false
	}
	for _, h := range m.Holders {
		lh.vec[h] = true
	}
	lh.vt = m.VT.Clone()
}
