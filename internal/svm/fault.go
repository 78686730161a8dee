package svm

import (
	"errors"
	"fmt"

	"ftsvm/internal/mem"
	"ftsvm/internal/proto"
	"ftsvm/internal/sim"
	"ftsvm/internal/vmmc"
)

// readFault brings an invalid page into the node's working copy. It
// resolves where the valid copy lives (primary home's committed copy in
// the extended protocol, the home's working copy in the base protocol),
// waits until that copy carries every update this node must observe, and
// merges any uncommitted local writes the page held when it was
// invalidated (false sharing). Attributed to data-wait time.
func (t *Thread) readFault(pg *page) {
	if fut := pg.fetching; fut != nil {
		// Another local thread is already fetching this page; wait for it
		// and let the caller re-check the page state. (Make the future, or
		// capture it, first: the flush inside beginWait yields, and the
		// owner may finish and clear pg.fetching before we park.)
		if fut == fetchPending {
			fut = t.cl.eng.NewFuture()
			pg.fetching = fut
		}
		t0 := t.beginWait()
		t.proc.Await(fut)
		t.endWait(CompDataWait, t0)
		return
	}
	pg.fetching = fetchPending
	t.node.stats.ReadFaults++
	needRecovery := false
	func() {
		// The dedupe future must resolve before this thread can park in
		// the recovery barrier, or the waiters could never arrive there.
		defer func() {
			if fut := pg.fetching; fut != fetchPending {
				fut.Resolve(nil)
			}
			pg.fetching = nil
		}()
		cfg := t.cl.cfg
		t.charge(CompDataWait, cfg.PageFaultTrapNs)
		for pg.state == pInvalid {
			prim := t.cl.pageHomes.Primary(pg.id)
			if t.cl.opt.Mode == ModeFT && prim == t.node.id {
				if t.localFetch(pg) {
					needRecovery = true
					return
				}
				continue
			}
			if prim == t.node.id {
				// Base protocol: the home's working copy is authoritative
				// (diffs land in it directly), but the home must wait
				// until every diff it was notified of has arrived.
				pg.ensureWorking()
				for !pg.baseVer.Covers(pg.reqVer) {
					t0 := t.beginWait()
					pg.verGate.WaitTimeout(t.proc, 4*cfg.HeartbeatTimeoutNs)
					t.endWait(CompDataWait, t0)
				}
				pg.homeStale = false
				if pg.twin != nil {
					pg.setState(pWritable)
				} else {
					pg.setState(pReadOnly)
				}
				break
			}
			if t.remoteFetch(pg, prim) {
				needRecovery = true
				return
			}
		}
	}()
	if needRecovery {
		t.joinRecovery()
	}
}

// fetchPending is page.fetching while a read fault runs with no sibling
// waiting; it is never awaited or resolved. A future completed with no
// waiter schedules nothing, so making one only when a sibling waits
// changes no event.
var fetchPending = new(sim.Future)

// localFetch is the extended protocol's home-page fault path: the primary
// home copies its own committed copy into the working copy, waiting first
// for any in-flight diffs the required version demands. Returns true if
// the thread must join recovery before retrying.
func (t *Thread) localFetch(pg *page) (needRecovery bool) {
	cfg := t.cl.cfg
	for !pg.coversNeed(pg.commitVer, t.node.id) {
		t0 := t.beginWait()
		pg.verGate.WaitTimeout(t.proc, 4*cfg.HeartbeatTimeoutNs)
		t.endWait(CompDataWait, t0)
		if t.cl.rec.pending && !t.inRecovery {
			return true // home assignment may change; caller re-resolves
		}
	}
	buf := pg.ensureWorking()
	copy(buf, pg.committed)
	t.node.stats.LocalFetches++
	t.charge(CompDataWait, cfg.CopyNs(cfg.PageSize))
	t.finishFetch(pg)
	return false
}

// remoteFetch requests the page from its (primary) home and installs the
// reply. Returns true if the home died (or recovery interrupted the wait)
// and the thread must join recovery before retrying against the new home.
func (t *Thread) remoteFetch(pg *page, home int) (needRecovery bool) {
	cfg := t.cl.cfg
	req := t.fetch
	if req == nil {
		req = &fetchReq{Need: proto.NewVector(cfg.Nodes), Reply: &fetchReply{Ver: proto.NewVector(cfg.Nodes)}}
		t.fetch = req
	}
	rep := req.Reply
	if rep.Data == nil {
		rep.Data = t.node.getPageBuf()
	}
	req.Page = pg.id
	pg.fillNeed(req.Need, t.node.id)
	t0 := t.beginWait()
	v, err := t.node.ep.RequestAbort(t.proc, home, t.node.msgWire(home, req), req,
		func() bool { return t.cl.rec.pending })
	t.endWait(CompDataWait, t0)
	if err != nil {
		// The home may still hold the request and fill its envelope later.
		t.fetch = nil
		if errors.Is(err, vmmc.ErrNodeDead) || errors.Is(err, vmmc.ErrAborted) {
			return true
		}
		panic(fmt.Sprintf("svm: fetch page %d: %v", pg.id, err))
	}
	if v != rep {
		panic("svm: fetch reply is not the request's envelope")
	}
	if !pg.coversNeed(rep.Ver, t.node.id) {
		// The page was invalidated again while the fetch was in flight;
		// retry with the stronger requirement (and the same envelope).
		return false
	}
	// A stale read-only copy may still be installed; the reply replaces it.
	t.node.putPageBuf(pg.working)
	pg.setWorking(rep.Data)
	rep.Data = nil
	t.node.stats.RemoteFetches++
	t.finishFetch(pg)
	return false
}

// finishFetch installs a fetched copy: if the page held uncommitted local
// writes when it was invalidated, replay the local diff over the fetched
// copy and keep the page dirty (the multiple-writer merge); otherwise the
// page becomes read-only. The merge reads, consumes and clears the stash
// without an intervening yield, and charges its cost only once the page
// has made its transition: a sibling's commit during a yield would diff
// the stash and drop it under the merge.
func (t *Thread) finishFetch(pg *page) {
	if pg.dirtyWorking == nil {
		pg.setState(pReadOnly)
		return
	}
	cfg := t.cl.cfg
	// The merge diff lives only for this replay: compute it in pooled
	// storage and release everything before returning.
	dbuf := mem.GetDiffBuf()
	localDiff := mem.Diff{Page: pg.id, Runs: mem.ComputeTrackedInto(dbuf, pg.dirtyTwin, pg.dirtyWorking, cfg.WordSize, pg.stashMask)}
	// New twin = fetched copy (pre-merge), so the next commit diffs out
	// exactly the local modifications. The dirty set carries over from
	// the stash, and only those chunks need pre-merge images.
	pg.setTwin(t.node.getPageBuf(), pg.stashMask)
	t.node.stats.TwinBytesCopied += int64(mem.CopyMasked(pg.twin, pg.working, pg.dirtyMask))
	localDiff.Apply(pg.working)
	dbuf.Release()
	t.node.putPageBuf(pg.dirtyWorking)
	t.node.putPageBuf(pg.dirtyTwin)
	pg.setStash(nil, nil, nil)
	pg.setState(pWritable)
	// Re-list the page: the dirty-list entry that accompanied the
	// stashed writes may already have been consumed by a commit
	// (duplicates are deduplicated there).
	t.node.dirty = append(t.node.dirty, pg.id)
	t.charge(CompDataWait, cfg.DiffNs(cfg.PageSize))
}

// writeFault promotes a read-only page to writable: stall while the page
// is locked by an outstanding release (extended protocol, §4.2), then
// create the twin and record the page in the current interval.
func (t *Thread) writeFault(pg *page) {
	cfg := t.cl.cfg
	for pg.locked {
		t0 := t.beginWait()
		pg.lockGate.WaitTimeout(t.proc, 4*t.cl.cfg.HeartbeatTimeoutNs)
		t.endWait(CompDataWait, t0)
		if t.cl.rec.pending && !t.inRecovery {
			t.joinRecovery()
		}
	}
	t.safePoint()
	if pg.state != pReadOnly {
		return // state changed while stalled; caller re-evaluates
	}
	// Check, clone, and transition without an intervening yield: a sibling
	// completing the same fault during a yield would have its writes
	// captured into a re-cloned twin and silently excluded from the diff.
	// The twin is lazy and partial: no copy here — each chunk is
	// snapshotted at its first write (Thread.track). The buffer holds
	// garbage outside dirty chunks and is never read there. The modeled
	// cost below is unchanged: the simulated machine still pays a
	// full-page copy.
	pg.setTwin(t.node.getPageBuf(), t.node.getMaskBuf())
	if pg.denseHint || t.cl.opt.FullTwins {
		// Dense-writer fast path (see page.denseHint), and every write
		// fault with FullTwins: a whole-page twin with a full mask.
		copy(pg.twin, pg.working)
		mem.MarkRange(pg.dirtyMask, 0, cfg.PageSize)
		pg.maskFull = true
		t.node.stats.TwinBytesCopied += int64(cfg.PageSize)
	}
	pg.setState(pWritable)
	t.node.dirty = append(t.node.dirty, pg.id)
	t.node.stats.WriteFaults++
	t.charge(CompDataWait, cfg.PageFaultTrapNs)
	t.charge(CompDataWait, cfg.CopyNs(cfg.PageSize))
}

// invalidate processes one write notice on this node: page pid was
// modified by node src in interval itv. Runs at acquires, barriers, and
// recovery, in process context, charging protocol time to the thread.
func (t *Thread) invalidate(pid int, src int, itv int32) {
	n := t.node
	if src == n.id {
		return
	}
	pg := n.pt.page(pid)
	if pg.reqAt(src) < itv {
		pg.setReqVer(src, itv)
	}
	t.node.stats.Invalidations++
	t.charge(CompProtocol, t.cl.cfg.ProtoOpNs)
	if t.cl.opt.Mode == ModeBase && t.cl.pageHomes.Primary(pid) == n.id {
		// Base protocol: the home's working copy receives remote diffs
		// directly, so there is nothing to fetch — but the home must
		// still stall its own next access until every diff it was
		// notified of has arrived, or a lock-ordered read-modify-write
		// at the home races with in-flight diffs (the home's local
		// update would be overwritten by an older diff). Mark the page
		// stale, keeping working (and a possible twin) in place; the
		// fault path waits on the version instead of fetching.
		if pg.baseVer == nil || !pg.baseVer.Covers(pg.reqVer) {
			// A dirty home page keeps its twin: remote diffs patch both
			// working and twin, so local modifications survive the wait.
			pg.homeStale = true
			pg.setState(pInvalid)
		}
		return
	}
	switch pg.state {
	case pWritable:
		pg.stashDirty()
	case pReadOnly:
		pg.setState(pInvalid)
	}
}

// applyNotices processes a batch of update lists, skipping intervals this
// node has already performed, and merges the accompanying vector time.
func (t *Thread) applyNotices(lists []proto.UpdateList, vt proto.VectorTime) {
	n := t.node
	for _, ul := range lists {
		if ul.Node == n.id || ul.Interval <= n.vt[ul.Node] {
			continue
		}
		for _, pid := range ul.Pages {
			t.invalidate(pid, ul.Node, ul.Interval)
		}
	}
	if vt != nil {
		n.mergeVT(vt)
	}
}

// fetchUpdates pulls the update lists this node is missing relative to
// target from their origin nodes (the acquire-side write-notice fetch of
// §3.2) and applies them. Dead origins are recovered from the failure
// machinery, which re-broadcasts the replicated lists. target may be the
// acquired lock's read envelope (see lockReadReply), so it is only read.
func (t *Thread) fetchUpdates(target proto.VectorTime) {
	n := t.node
	for src := range target {
		if src == n.id || target[src] <= n.vt[src] {
			continue
		}
		req := t.upd
		if req == nil {
			req = &updatesReq{}
			t.upd = req
		}
		req.From, req.To = n.vt[src]+1, target[src]
		t0 := t.beginWait()
		v, err := n.ep.RequestAbort(t.proc, src, req.wireBytes(), req, func() bool { return t.cl.rec.pending })
		t.endWait(CompProtocol, t0)
		if err != nil {
			// The origin may still answer the request and fill its envelope.
			t.upd = nil
			if errors.Is(err, vmmc.ErrNodeDead) || errors.Is(err, vmmc.ErrAborted) {
				t.joinRecoveryErr(err)
				// Recovery merged the replicated lists; re-check remaining.
				continue
			}
			panic(fmt.Sprintf("svm: fetch updates from %d: %v", src, err))
		}
		if v != &req.Reply {
			panic("svm: update-list reply is not the request's envelope")
		}
		t.applyNotices(req.Reply.Lists, nil)
		n.advanceVT(src, target[src])
	}
}
