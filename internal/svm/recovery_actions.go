package svm

import (
	"slices"
	"time"

	"ftsvm/internal/checkpoint"
	"ftsvm/internal/mem"
	"ftsvm/internal/obs"
	"ftsvm/internal/proto"
)

// rehome runs dir.Rehome(dead) under host wall timing (the measured
// recovery-path directory cost reported by the scaling bench) and, for
// hashed directories, charges the home-delta broadcast: a hashed
// directory is computable from membership plus its override table, so
// the coordinator must ship the newly created overrides to every
// survivor. A flat directory re-runs the same full scan on every node
// and ships nothing — keeping the flat recovery path bit-identical to
// the seed.
func (t *Thread) rehome(dir proto.Directory, dead int) []proto.Reassignment {
	start := time.Now()
	rs := dir.Rehome(dead)
	t.cl.rehomeWallNs += time.Since(start).Nanoseconds()
	if t.cl.dirHashed && len(rs) > 0 {
		wire := proto.HomeDeltaWireBytes(len(rs))
		survivors := dir.AliveCount() - 1 // everyone but the coordinator
		t.charge(CompProtocol, t.cl.cfg.TransferNs(wire*survivors))
	}
	return rs
}

// reconcilePages restores the replica invariant for every page with
// respect to the dead nodes' interrupted releases (§4.5.2). Each saved
// timestamp designates the set of its dead node's updates whose phase 1
// completed: those roll forward (tentative -> committed); anything beyond
// rolls back (committed -> tentative). With several deaths in one episode
// every roll-back runs before any roll-forward: a roll-forward clones a
// secondary's version vector into the committed copy wholesale, and must
// never launder another dead node's cancelled interval into it. Pages
// whose surviving copy is the only copy are handled by rehomeAndReplicate.
func (t *Thread) reconcilePages(deads []int, saveds []*savedState) {
	cl := t.cl
	cfg := cl.cfg
	deg := cl.pageHomes.Degree()
	bytesMoved := make([]int, len(deads))
	forEachHomePair := func(visit func(pgP, pgS *page)) {
		for p := 0; p < cl.pageHomes.Items(); p++ {
			P := cl.pageHomes.Primary(p)
			if cl.nodes[P].dead {
				continue // no committed copy; the promotion rebuilds from a survivor
			}
			pgP := cl.nodes[P].pt.page(p)
			for s := 1; s < deg; s++ {
				S := cl.pageHomes.Replica(p, s)
				if cl.nodes[S].dead {
					continue // this tentative copy died; rehomeAndReplicate rebuilds it
				}
				pgS := cl.nodes[S].pt.page(p)
				if pgP.committed == nil && pgS.tentative == nil {
					continue
				}
				ensureCommitted(cl, pgP)
				ensureTentative(cl, pgS)
				visit(pgP, pgS)
			}
		}
	}
	forEachHomePair(func(pgP, pgS *page) {
		for di, dead := range deads {
			cv, dv := pgP.commitVer[dead], pgS.tentVer[dead]
			if dv > cv && dv > saveds[di].ts[dead] {
				// Roll back: undo exactly the dead node's tentative update
				// using the pre-image that rode with the phase-1 diff. Unlike
				// cancelUnsaved, this returns the copy to the primary's
				// committed version cv, not to the saved timestamp.
				if rec, ok := pgS.undoFrom[dead]; ok && rec.interval == dv {
					rec.undo.Apply(pgS.tentative)
				}
				pgS.tentVer[dead] = cv
				bytesMoved[di] += cfg.PageSize
			}
		}
	})
	forEachHomePair(func(pgP, pgS *page) {
		for di, dead := range deads {
			cv, dv := pgP.commitVer[dead], pgS.tentVer[dead]
			// dv == cv: no interrupted release by the dead node touches this
			// page. Mismatches in live nodes' entries are in-flight releases
			// whose (live) owners will complete phase 2 themselves.
			if dv > cv && dv <= saveds[di].ts[dead] {
				// Roll forward: the dead node's phase 1 completed for this
				// interval; promote the tentative copy. Live in-flight
				// phase-1 partials promoted along with it are re-applied
				// idempotently by their owners' phase 2.
				copy(pgP.committed, pgS.tentative)
				pgP.commitVer = pgS.tentVer.Clone()
				bytesMoved[di] += cfg.PageSize
			}
		}
	})
	for di, dead := range deads {
		tsD := saveds[di].ts[dead]
		// Apply the dead node's stashed self-secondary diffs: updates whose
		// only phase-1 replica died with the releaser but whose release is
		// considered complete (<= saved timestamp) must reach the committed
		// copies.
		var stash []mem.Diff
		if st := cl.nodes[cl.backupOf(dead)].savedStash[dead]; st != nil {
			stash = st.diffs
		}
		for _, d := range stash {
			P := cl.pageHomes.Primary(d.Page)
			if cl.nodes[P].dead {
				continue // no committed copy survives; handled by replay
			}
			pg := cl.nodes[P].pt.page(d.Page)
			ensureCommitted(cl, pg)
			if pg.commitVer[dead] < tsD {
				d.Apply(pg.committed)
				pg.commitVer[dead] = tsD
				bytesMoved[di] += d.DataBytes()
			}
		}
		// The coordinator drives the copies; charge the pipelined transfer.
		t.charge(CompProtocol, cfg.TransferNs(bytesMoved[di]))
		cl.trace(obs.KRecoveryReconcile, dead, t.id, int64(bytesMoved[di]))
	}
}

func ensureCommitted(cl *Cluster, pg *page) {
	if pg.committed == nil {
		pg.committed = pg.pt.node.getPageBufZero()
		pg.commitVer = proto.NewVector(cl.cfg.Nodes)
	}
}

func ensureTentative(cl *Cluster, pg *page) {
	if pg.tentative == nil {
		pg.tentative = pg.pt.node.getPageBufZero()
		pg.tentVer = proto.NewVector(cl.cfg.Nodes)
	}
}

// cancelUnsaved rolls pg's tentative copy back to each episode dead
// node's saved timestamp (tsOf, in deads' order): an interval beyond it
// belongs to a release whose phase 1 did not complete. The pre-image
// that rode with its phase-1 diff undoes it; undo holds that record (pg
// itself, or the live holder pg was just copied from). reconcilePages'
// roll-back, which has a committed copy, rolls back to that instead.
func cancelUnsaved(pg, undo *page, deads []int, tsOf []int32) {
	for di, d := range deads {
		if pg.tentVer[d] <= tsOf[di] {
			continue
		}
		if rec, ok := undo.undoFrom[d]; ok && rec.interval == pg.tentVer[d] {
			rec.undo.Apply(pg.tentative)
		}
		pg.tentVer[d] = tsOf[di]
	}
}

// rehomeAndReplicate reassigns every home role the dead node held and
// rebuilds the missing replicas from the surviving copies (§4.5.1). The
// mapping guarantees the k replicas of each page stay on distinct live
// nodes under any failure sequence. deads and tsOf carry the episode's
// full death set with each dead node's saved timestamp: a page whose
// primary died was skipped by reconcilePages, so its surviving tentative
// copies may still hold cancelled intervals from ANY of the episode's
// dead nodes, and the promotion must roll every one of them back.
func (t *Thread) rehomeAndReplicate(dead int, deads []int, tsOf []int32) {
	cl := t.cl
	cfg := cl.cfg
	bytesMoved := 0
	for _, r := range t.rehome(cl.pageHomes, dead) {
		pg := cl.nodes[r.NewNode].pt.page(r.Item)
		sv := cl.nodes[r.Survivor].pt.page(r.Item)
		switch r.Role {
		case proto.Primary:
			// Promotion in place: the old secondary becomes primary; its
			// tentative copy is the authoritative state. An update beyond
			// a dead node's saved timestamp belongs to a release whose
			// phase 1 did not complete: roll it back using the stored
			// pre-image (the committed copy that would normally provide
			// the roll-back data died with the releaser).
			ensureTentative(cl, sv)
			cancelUnsaved(sv, sv, deads, tsOf)
			ensureCommitted(cl, pg)
			copy(pg.committed, sv.tentative)
			pg.commitVer = sv.tentVer.Clone()
			bytesMoved += cfg.PageSize
			if deg := cl.pageHomes.Degree(); deg > 2 {
				// The promoted copy is only one of k-1 symmetric tentative
				// holders: every other surviving secondary rolls the dead
				// nodes' uncommitted updates back too, or a later promotion
				// of that replica would resurrect a cancelled interval.
				for s := 1; s < deg; s++ {
					osPg := cl.nodes[cl.pageHomes.Replica(r.Item, s)].pt.page(r.Item)
					if osPg.tentative != nil {
						cancelUnsaved(osPg, osPg, deads, tsOf)
					}
				}
			}
		case proto.Secondary:
			if cl.nodes[r.Survivor].dead {
				// The authoritative committed copy belongs to another of the
				// episode's dead nodes whose own promotion has not run yet;
				// its frozen committed state predates the roll decisions.
				// Rebuild the tail from the first live tentative holder with
				// the episode deads' unsaved intervals cancelled on the copy
				// — exactly the state the pending promotion will commit.
				ensureTentative(cl, pg)
				var src *page
				for s := 1; s < cl.pageHomes.Degree(); s++ {
					n := cl.pageHomes.Replica(r.Item, s)
					if n == r.NewNode || cl.nodes[n].dead {
						continue
					}
					if cand := cl.nodes[n].pt.page(r.Item); cand.tentative != nil {
						src = cand
						break
					}
				}
				if src == nil {
					clear(pg.tentVer)
				} else {
					copy(pg.tentative, src.tentative)
					copy(pg.tentVer, src.tentVer)
					cancelUnsaved(pg, src, deads, tsOf)
				}
				bytesMoved += cfg.PageSize
				continue
			}
			ensureCommitted(cl, sv)
			ensureTentative(cl, pg)
			copy(pg.tentative, sv.committed)
			copy(pg.tentVer, sv.commitVer)
			if r.NewNode != r.Survivor {
				bytesMoved += cfg.PageSize
			}
		}
	}
	t.charge(CompProtocol, cfg.TransferNs(bytesMoved))
	cl.trace(obs.KRecoveryRehome, dead, t.id, int64(bytesMoved))
}

// rebuildLocks reassigns lock homes and reconstructs each lock's state
// at the new homes from the surviving home replica: the primary's
// vector if the primary survives, else the secondary's (§4.5.1). The
// replica is then filtered against the acquirer-side state of the live
// nodes it names — an element whose owner is neither holding nor
// acquiring the lock is an in-flight release or failed-attempt clear
// that had not reached this replica, and the dead node's own element is
// implicitly released (its threads replay from before the acquire).
// The filter only ever removes elements; it never invents a holder the
// replica does not record, which is exactly why grants must replicate
// before they take effect (see nicTestAndSet): a holder missing from
// both replicas would be resurrected here as a free lock and granted
// twice. The release timestamp is merged from the surviving replicas.
func (t *Thread) rebuildLocks(dead int) {
	cl := t.cl
	cfg := cl.cfg
	nlocks := cl.lockHomes.Items()

	// Surviving home state, captured before rehoming.
	oldVT := make([]proto.VectorTime, nlocks)
	oldVec := make([][]bool, nlocks)
	for l := 0; l < nlocks; l++ {
		vt := proto.NewVector(cfg.Nodes)
		for s := 0; s < cl.lockHomes.Degree(); s++ {
			home := cl.lockHomes.Replica(l, s)
			if cl.nodes[home].dead {
				// Skips the node being processed and any other episode dead
				// still holding a home slot: a frozen replica must not be
				// treated as authoritative.
				continue
			}
			if lh := cl.nodes[home].lockHomesState[l]; lh != nil {
				vt.Merge(lh.vt)
				if oldVec[l] == nil {
					// First surviving replica in primary-then-secondary
					// order: the authoritative vector. Clone it — the
					// installs below mutate home state in place.
					oldVec[l] = append([]bool(nil), lh.vec...)
				}
			}
		}
		oldVT[l] = vt
	}
	t.rehome(cl.lockHomes, dead)

	for l := 0; l < nlocks; l++ {
		var holders []int
		for i, set := range oldVec[l] {
			if !set || i == dead || cl.nodes[i].dead {
				continue
			}
			if ol := cl.nodes[i].owned[l]; ol != nil && (ol.held || ol.busy) {
				holders = append(holders, i)
			}
		}
		for s := 0; s < cl.lockHomes.Degree(); s++ {
			n := cl.nodes[cl.lockHomes.Replica(l, s)]
			n.installLock(&lockRebuild{Lock: l, Holders: holders, VT: oldVT[l]})
		}
		t.charge(CompProtocol, cfg.ProtoOpNs)
	}
	cl.trace(obs.KRecoveryLocks, dead, t.id, int64(nlocks))
}

// globalSync makes memory globally consistent across the survivors:
// every node learns every other node's committed intervals (including the
// dead node's replicated ones, up to its saved timestamp) and invalidates
// accordingly. This is the recovery-phase global synchronization point.
func (t *Thread) globalSync(dead int, saved *savedState) {
	cl := t.cl
	cfg := cl.cfg

	// Gather all lists any node might be missing.
	var all []proto.UpdateList
	minSeen := make(proto.VectorTime, cfg.Nodes)
	for i := range minSeen {
		minSeen[i] = int32(1 << 30)
	}
	for _, n := range cl.nodes {
		if n.dead {
			continue
		}
		for src := range n.vt {
			if n.vt[src] < minSeen[src] {
				minSeen[src] = n.vt[src]
			}
		}
	}
	bytes := 0
	for _, n := range cl.nodes {
		if n.dead {
			continue
		}
		lists := n.intervalRange(minSeen[n.id]+1, int32(len(n.intervals)))
		all = append(all, lists...)
		bytes += updatesWire(lists)
	}
	// The dead node's lists, from its backup, clamped to the saved
	// timestamp (anything beyond rolled back).
	for _, ul := range saved.lists {
		if ul.Interval <= saved.ts[dead] {
			all = append(all, ul)
		}
	}
	globalVT := proto.NewVector(cfg.Nodes)
	for _, n := range cl.nodes {
		if !n.dead {
			globalVT.Merge(n.vt)
		}
	}
	globalVT[dead] = saved.ts[dead]

	for _, n := range cl.nodes {
		if n.dead {
			continue
		}
		for _, ul := range all {
			if ul.Node == n.id || ul.Interval <= n.vt[ul.Node] {
				continue
			}
			for _, pid := range ul.Pages {
				n.invalidateRaw(pid, ul.Node, ul.Interval)
			}
		}
		n.mergeVT(globalVT)
		// Clamp requirements on the dead node's cancelled intervals.
		for pg := range n.pt.present() {
			if pg.reqAt(dead) > saved.ts[dead] {
				pg.setReqVer(dead, saved.ts[dead])
			}
		}
	}
	t.charge(CompProtocol, cfg.TransferNs(bytes)+int64(len(all))*cfg.ProtoOpNs)
	cl.trace(obs.KRecoverySync, dead, t.id, int64(len(all)))
}

// invalidateRaw is the node-level invalidation used during recovery (no
// per-thread charge; the coordinator accounts the work in bulk).
func (n *node) invalidateRaw(pid, src int, itv int32) {
	if src == n.id {
		return
	}
	pg := n.pt.page(pid)
	if pg.reqAt(src) < itv {
		pg.setReqVer(src, itv)
	}
	switch pg.state {
	case pWritable:
		pg.stashDirty()
	case pReadOnly:
		pg.setState(pInvalid)
	}
}

// migrateThreads resumes the dead node's threads on the backup node from
// their last checkpoints (§4.5.3). Threads that never checkpointed restart
// from the beginning of their body (equivalent to a checkpoint at the
// initial barrier). Returns the number of migrated threads.
func (t *Thread) migrateThreads(dead int, saved *savedState) int {
	cl := t.cl
	backup := cl.backupOf(dead)
	bn := cl.nodes[backup]
	tsD := saved.ts[dead]
	// A snapshot is usable only if the interval open when it was taken
	// survived the roll decision: point-A snapshots ride with a release's
	// commit, so one from a release that rolled back (timestamp never
	// saved) describes thread progress whose memory effects were erased.
	usable := func(s checkpoint.Snapshot) bool { return s.VT[dead] <= tsD }
	count := 0
	for _, old := range cl.threads {
		if old.node.id != dead || old.finished {
			continue
		}
		nt := &Thread{id: old.id, cl: cl, node: bn, migrated: true}
		// The snapshot counts only if its depositor can no longer be
		// running the thread. At k = 2 that is exactly ckptHome == dead
		// (the seed rule); at k > 2 a thread migrated earlier in the same
		// episode may die again before re-checkpointing, leaving its
		// latest deposit tagged with the previous (also dead) home.
		home, hasHome := bn.ckptHome[old.id]
		okHome := hasHome && (home == dead || (cl.Degree() > 2 && cl.nodes[home].dead))
		snap, restored := bn.ckpts.LatestValid(old.id, usable)
		if restored && okHome {
			nt.restoredBlob = slices.Clone(snap.Blob) // the slot's storage is reused two deposits on
			nt.ckptSeq = snap.Seq
			nt.barSeq = snap.BarSeq
			t.charge(CompProtocol, cl.cfg.CheckpointNs(len(snap.Blob)))
		}
		// Register and spawn BEFORE announcing the restore: the trace is a
		// failure-injection boundary, and a kill of the backup node there
		// must see the migrated thread in bn.threads to stop it. The
		// explicit dead-check below covers the other ordering — bn killed
		// at an earlier boundary of this same loop — where the thread is
		// spawned onto an already-dead node.
		cl.threads[old.id] = nt
		bn.threads = append(bn.threads, nt)
		cl.spawnThread(nt)
		if restored && okHome {
			cl.trace(obs.KRecoveryRestore, backup, old.id, snap.Seq)
		}
		if bn.dead && !nt.dead {
			nt.dead = true
			nt.proc.Kill()
		}
		t.node.stats.MigratedThreads++
		count++
	}
	cl.trace(obs.KRecoveryMigrate, dead, t.id, int64(count))
	return count
}
