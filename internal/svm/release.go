package svm

import (
	"errors"
	"fmt"

	"ftsvm/internal/mem"
	"ftsvm/internal/obs"
	"ftsvm/internal/proto"
	"ftsvm/internal/vmmc"
)

// capturedDiff is one page's modifications captured at interval commit.
// The extended protocol keeps captured diffs locally between the two
// propagation phases so they are not recomputed (§5.2, Diffs).
type capturedDiff struct {
	pid  int
	diff *mem.Diff
	// undo is the pre-image of the diffed words, captured for every page
	// in the extended protocol (see diffMsg.Undo).
	undo *mem.Diff
}

// commitInterval ends the node's current time interval: it atomically
// captures diffs for every page any local thread updated, transitions the
// pages back to read-only (so subsequent writes open the next interval),
// locks the pages in the extended protocol, appends the update list, and
// advances the node's own vector entry. Returns 0 and nil if no updates
// were made. The diffs and the capture list live in the thread's release
// scratch, valid until the release recycles it.
func (t *Thread) commitInterval() (int32, []capturedDiff) {
	n := t.node
	cfg := t.cl.cfg
	ft := t.cl.opt.Mode == ModeFT
	rs := &t.rel

	maskChunks := (cfg.PageSize + mem.ChunkBytes - 1) >> mem.ChunkShift
	caps := rs.caps[:0]
	pages := rs.pages[:0]
	retained := rs.retained[:0] // pages with deferred sibling words: stay dirty
	logged := rs.logged[:0]     // every committed diff, for the commit sink
	diffBytes := 0
	n.commitSeq++
	for _, pid := range n.dirty {
		pg := n.pt.page(pid)
		if pg.seenCommit == n.commitSeq {
			continue // duplicate dirty-list entry (fetch-merge re-listing)
		}
		pg.seenCommit = n.commitSeq
		var twin, cur []byte
		var mask []uint64
		stash := false
		switch {
		case pg.dirtyWorking != nil:
			// Invalidated while dirty and not yet refetched: diff the
			// stashed copies; the stash is then propagated and dropped
			// (or retained, if sibling words are deferred).
			twin, cur, mask, stash = pg.dirtyTwin, pg.dirtyWorking, pg.stashMask, true
		case pg.twin != nil:
			// Writable, or a base-mode home page marked stale while dirty
			// (its state is pInvalid but working and twin stayed live).
			twin, cur, mask = pg.twin, pg.working, pg.dirtyMask
		default:
			continue // already handled (racing commit)
		}
		// The diff lives in the release scratch: it is shipped and stashed
		// at the backups, and every receiver that keeps it keeps a copy.
		// The scan is restricted to the chunks the write path recorded as
		// dirty (identical output to a full scan).
		d := rs.diff(pid, mem.AppendTrackedInto(&rs.buf, twin, cur, cfg.WordSize, mask))
		// Re-learn the page's write density for the next interval's twin
		// strategy (see page.denseHint). The crossover sits low: one
		// page-sized copy plus a full scan beats per-write probes and
		// scattered chunk copies well before half the chunks are dirty,
		// so ≥1/4 dirty reads as dense.
		pg.denseHint = mem.MaskCount(mask)*4 >= maskChunks
		// SMP replay exactness: words last written by a sibling that is
		// inside a critical section right now are NOT committed with this
		// interval — they stay twinned and commit with that sibling's own
		// release. Otherwise a roll-forward would apply the sibling's
		// partial critical section and its replayed thread (checkpointed
		// mid-CS at point A as a state struct, not a stack) would apply it
		// again. Single-thread-per-node runs never defer.
		deferred := t.splitDeferred(pg, d)
		diffBytes += cfg.PageSize // modeled cost: diff creation scans the whole page
		// Buffers dropped here are recycled at the end of the iteration:
		// the twin is still read below by preImage.
		var freeCur, freeTwin []byte
		if deferred {
			retained = append(retained, pid)
		} else {
			if stash {
				freeCur, freeTwin = pg.dirtyWorking, pg.dirtyTwin
				pg.setStash(nil, nil, nil)
			} else {
				freeTwin = pg.twin
				pg.setTwin(nil, nil)
				pg.maskFull = false
				if pg.state == pWritable {
					pg.setState(pReadOnly)
				}
			}
			if pg.writers != nil {
				clearWriters(pg.writers, mask, cfg.WordSize, cfg.PageSize)
			}
			t.node.putMaskBuf(mask)
		}
		if d.Empty() {
			t.node.putPageBuf(freeCur)
			t.node.putPageBuf(freeTwin)
			continue
		}
		t.node.stats.PagesDiffed++
		if t.cl.pageHomes.Primary(pid) == n.id {
			t.node.stats.HomePagesDiffed++
		}
		pages = append(pages, pid)
		if t.cl.commitSink != nil {
			logged = append(logged, d)
		}
		if ft || t.cl.pageHomes.Primary(pid) != n.id {
			cd := capturedDiff{pid: pid, diff: d}
			if ft {
				// Every phase-1 diff carries its pre-image: recovery must
				// be able to undo exactly this node's tentative update
				// (a whole-page restore from the committed copy would
				// collaterally wipe other releasers' in-flight phase-1
				// data, and for pages primary-homed here the committed
				// copy dies with this node anyway).
				cd.undo = rs.preImage(d, twin)
			}
			caps = append(caps, cd)
		}
		if deferred {
			// Fold the committed words into the retained twin (after the
			// pre-image was taken) so the sibling's commit re-captures
			// only its own deferred words.
			for _, r := range d.Runs {
				copy(twin[r.Off:r.Off+len(r.Data)], r.Data)
			}
		}
		if ft {
			pg.locked = true
		}
		t.node.putPageBuf(freeCur)
		t.node.putPageBuf(freeTwin)
	}
	rs.caps, rs.pages, rs.retained, rs.logged = caps, pages, retained, logged
	n.dirty = append(n.dirty[:0], retained...)
	if len(pages) == 0 {
		return 0, nil
	}

	itv := int32(len(n.intervals)) + 1
	n.intervals = append(n.intervals, proto.UpdateList{Node: n.id, Interval: itv, Pages: n.listPages(pages)})
	n.advanceVT(n.id, itv)
	t.node.stats.Intervals++
	if sink := t.cl.commitSink; sink != nil {
		sink(n.id, itv, n.vtSnapshot(), logged)
	}
	for _, pid := range pages {
		n.pt.page(pid).lastLocalItv = itv
	}

	t.charge(CompDiff, cfg.DiffNs(diffBytes))
	t.charge(CompProtocol, int64(len(pages))*cfg.ProtoOpNs)

	if !ft {
		// Base protocol: the home's working copy already holds local
		// updates to home pages; expose their new version immediately.
		for _, pid := range pages {
			if t.cl.pageHomes.Primary(pid) == n.id {
				pg := n.pt.page(pid)
				if pg.baseVer[n.id] < itv {
					pg.baseVer[n.id] = itv
				}
				pg.serveWaiters(pg.baseVer, pg.ensureWorking(), cfg.PageSize+64)
				pg.verGate.Broadcast()
			}
		}
	}
	return itv, caps
}

// performRelease runs the node-level release pipeline for the protocol
// mode in use. afterVisible is invoked at the point the release becomes
// visible to other nodes (base: right after commit, per GeNIMA's
// release-then-propagate order; extended: after phase 1 + checkpoint B,
// so a failure never exposes unsaved state); the caller hands the lock
// over inside it. Both pipelines end with their last fence, after which
// the thread's release scratch is recycled.
func (t *Thread) performRelease(afterVisible func()) {
	n := t.node
	serialize := t.cl.opt.Mode == ModeFT || t.cl.opt.SerialReleases
	if serialize {
		for n.releaseBusy {
			t0 := t.beginWait()
			n.releaseGate.WaitTimeout(t.proc, 4*t.cl.cfg.HeartbeatTimeoutNs)
			t.endWait(CompProtocol, t0)
			if t.cl.rec.pending && !t.inRecovery {
				t.participateRecovery()
			}
		}
		n.releaseBusy = true
		defer func() {
			n.releaseBusy = false
			n.releaseGate.Broadcast()
		}()
	}
	if t.cl.opt.Mode == ModeBase {
		t.releaseBase(afterVisible)
	} else {
		t.releaseFT(afterVisible)
	}
	t.rel.recycle()
}

// releaseBase is GeNIMA's release: commit, hand over the lock, then
// eagerly push diffs of non-home pages to their homes.
func (t *Thread) releaseBase(afterVisible func()) {
	n := t.node
	itv, caps := t.commitInterval()
	if afterVisible != nil {
		afterVisible()
	}
	if itv == 0 {
		n.releaseSeq++
		return
	}
	t.propagate(caps, itv, 0, 1)
	n.releaseSeq++
	t.cl.trace(obs.KReleaseDone, n.id, t.id, n.releaseSeq)
}

// releaseFT is the extended protocol's release (§4.2, Fig. 2): suspend and
// checkpoint siblings at point A, commit and lock the updated pages,
// propagate diffs to the tentative copies at the secondary homes (phase 1),
// save the timestamp and update list at the backup node, checkpoint the
// releasing thread (point B), make the release visible, then propagate the
// same diffs to the committed copies at the primary homes (phase 2) and
// unlock.
func (t *Thread) releaseFT(afterVisible func()) {
	n := t.node

	t.suspendSiblings()
	itv, caps := t.commitInterval()
	t.cl.trace(obs.KReleaseCommit, n.id, t.id, n.releaseSeq+1)
	t.checkpointSiblings()

	// If a recovery episode completes while this release is in flight —
	// possible whenever the thread parks between commit and the final
	// phase (timestamp save, lock handover, post-queue waits) and the
	// failed node is a bystander home, so no send of ours errors — the
	// re-homing step rebuilt replicas from copies that may predate this
	// interval's propagation. The owner of an in-flight release is
	// responsible for its interval (§4.5): re-run the propagation against
	// the post-recovery homes until no recovery intervenes. Re-applying a
	// diff that already landed is idempotent (diffs carry absolute words).
	epoch := t.cl.rec.epoch

	// Phase 1 fans out to every secondary slot (1..k-1), phase 2 goes to
	// the primary alone (slot 0). The single-phase ablation updates both
	// copies under phase 1's one fence, slots 1..k — one round-trip
	// cheaper, no roll-forward/roll-back guarantee.
	hi1, twoPhase := t.cl.pageHomes.Degree(), !t.cl.opt.UnsafeSinglePhase
	if !twoPhase {
		hi1++
	}
	if itv != 0 {
		t.propagate(caps, itv, 1, hi1)
		t.cl.trace(obs.KReleasePhase1, n.id, t.id, n.releaseSeq+1)
		t.saveTimestamp(itv, caps)
		t.cl.trace(obs.KReleaseSaveTS, n.id, t.id, n.releaseSeq+1)
	} else {
		// No updates: no timestamp to arbitrate, but the thread still
		// checkpoints at this release (point B).
		t.checkpointSelf()
	}
	t.cl.trace(obs.KReleaseCkptB, n.id, t.id, n.releaseSeq+1)

	if afterVisible != nil {
		afterVisible()
	}

	if itv != 0 {
		if twoPhase {
			t.propagate(caps, itv, 0, 1)
		}
		for t.cl.rec.epoch != epoch {
			// Recovery intervened since the pre-phase-1 snapshot: the
			// current homes may hold replicas built without this interval.
			epoch = t.cl.rec.epoch
			t.propagate(caps, itv, 1, hi1)
			if twoPhase {
				t.propagate(caps, itv, 0, 1)
			}
		}
		if twoPhase {
			t.cl.trace(obs.KReleasePhase2, n.id, t.id, n.releaseSeq+1)
		}
		for _, c := range caps {
			pg := n.pt.page(c.pid)
			pg.locked = false
			pg.lockGate.Broadcast()
		}
	}
	n.releaseSeq++
	t.cl.trace(obs.KReleaseDone, n.id, t.id, n.releaseSeq)
}

// propagate ships the captured diffs to home slots lo..hi-1 (shipDiffs)
// and fences them. If a destination home died, the thread participates in
// recovery and resends to the re-homed assignment; re-applying a diff that
// already arrived is idempotent.
func (t *Thread) propagate(caps []capturedDiff, itv int32, lo, hi int) {
	for {
		t.shipDiffs(caps, itv, lo, hi)
		if t.fenced(CompDiff, t.beginWait(), "diff propagation") {
			return
		}
	}
}

// shipDiffs posts each captured diff, in capture order, to home slots
// lo..hi-1 of its page, taken mod k, and applies it in place where this
// node is the home. Slot 0 carries phase 2 (the committed copy; phase 0
// in the base protocol), every other slot phase 1 (a tentative copy).
// Under AggregateDiffs the diffs travel in one batch per home, posted in
// home-id order after the loop.
func (t *Thread) shipDiffs(caps []capturedDiff, itv int32, lo, hi int) {
	n := t.node
	k := t.cl.pageHomes.Degree()
	ft := t.cl.opt.Mode == ModeFT
	agg := t.cl.opt.AggregateDiffs
	batches := map[int]*diffBatch{}
	for _, c := range caps {
		for s := lo; s < hi; s++ {
			dst := t.cl.pageHomes.Replica(c.pid, s%k)
			phase := 1
			switch {
			case !ft:
				phase = 0
			case s%k == 0:
				phase = 2
			}
			if dst == n.id {
				t.applyLocalDiff(c, itv, phase)
				continue
			}
			m := t.rel.diffMsg(c, n.id, itv, phase)
			if !agg {
				t.postDiff(dst, m.wireBytes(), m)
				continue
			}
			b := batches[dst]
			if b == nil {
				b = &diffBatch{}
				batches[dst] = b
			}
			b.Items = append(b.Items, m)
		}
	}
	if !agg {
		return
	}
	for dst := 0; dst < t.cl.cfg.Nodes; dst++ {
		if b := batches[dst]; b != nil {
			t.postDiff(dst, b.wireBytes(), b)
		}
	}
}

// postDiff posts one diff message or batch and accounts for it.
func (t *Thread) postDiff(dst, size int, m wireMsg) {
	t.node.stats.DiffMsgs++
	t.node.stats.DiffBytes += int64(size)
	t.charge(CompDiff, t.cl.cfg.NICPostOverheadNs)
	t0 := t.beginWait()
	t.node.ep.Post(t.proc, dst, size, m)
	t.endWait(CompDiff, t0)
}

// fenced waits for everything this node posted to land, charging the
// wait since t0 to c, and reports whether it all did. A dead destination
// in the extended protocol makes the thread join recovery and report
// false: the caller resends to the re-homed set. Any other error panics —
// the base protocol is the failure-free baseline, so a node failure under
// it is fatal by design.
func (t *Thread) fenced(c Component, t0 int64, what string) bool {
	err := t.node.ep.Fence(t.proc)
	t.endWait(c, t0)
	if err == nil {
		return true
	}
	if t.cl.opt.Mode == ModeFT && errors.Is(err, vmmc.ErrNodeDead) {
		t.joinRecoveryErr(err)
		return false
	}
	panic(fmt.Sprintf("svm: %s: %v", what, err))
}

// clearWriters resets last-writer marks after a commit. Only words inside
// dirty chunks can carry marks (a mark is set at each write, which also
// dirties the chunk), so the reset skips the rest of the page instead of
// clearing ~PageSize/WordSize words wholesale.
func clearWriters(writers []int16, mask []uint64, wordSize, pageSize int) {
	mem.MaskRuns(mask, pageSize, func(lo, hi int) {
		for w := lo / wordSize; w < (hi+wordSize-1)/wordSize && w < len(writers); w++ {
			writers[w] = -1
		}
	})
}

// splitDeferred removes from d every word whose last local writer is a
// sibling thread currently holding an application lock: those words
// belong to an open critical section and must commit with the sibling's
// own interval (see commitInterval). Writer marks of the words that stay
// in d are cleared. Reports whether anything was deferred.
func (t *Thread) splitDeferred(pg *page, d *mem.Diff) bool {
	if !t.cl.trackWriters || pg.writers == nil || d.Empty() {
		return false
	}
	// Fast path: no other thread on this node is inside a critical section
	// right now, so no word can qualify for deferral — skip the per-word
	// writer scan entirely (the caller's post-commit mark reset handles the
	// bookkeeping). A stale Thread object in node.threads can only cause a
	// harmless trip into the slow path, never a missed deferral: current
	// thread objects are always listed on their node.
	inCS := false
	for _, sib := range t.node.threads {
		if sib != t && sib.locksHeld > 0 {
			inCS = true
			break
		}
	}
	if !inCS {
		return false
	}
	ws := t.cl.cfg.WordSize
	// A run may split into several kept runs, so build into a separate
	// slice (appending into d.Runs[:0] could overwrite runs not yet
	// visited), then give d a copy of it in the release scratch.
	kept := t.rel.kept[:0]
	deferred := false
	for _, r := range d.Runs {
		start := -1
		for i := 0; i <= len(r.Data); i += ws {
			deferWord := false
			if i < len(r.Data) {
				if wt := pg.writers[(r.Off+i)/ws]; wt >= 0 && int(wt) != t.id {
					sib := t.cl.threads[wt]
					deferWord = sib != nil && sib.node == t.node && sib.locksHeld > 0
				}
			}
			switch {
			case i < len(r.Data) && !deferWord:
				if start < 0 {
					start = i
				}
				pg.writers[(r.Off+i)/ws] = -1
			default:
				if start >= 0 {
					kept = append(kept, mem.Run{Off: r.Off + start, Data: r.Data[start:i]})
					start = -1
				}
				if i < len(r.Data) {
					deferred = true
					t.node.stats.DeferredWords++
				}
			}
		}
	}
	t.rel.kept = kept
	d.Runs = t.rel.buf.AppendClone(kept)
	return deferred
}

// applyLocalDiff applies one of this node's own diffs to its local home
// copy (primary homes hold committed copies, secondary homes tentative).
func (t *Thread) applyLocalDiff(c capturedDiff, itv int32, phase int) {
	n := t.node
	pg := n.pt.page(c.pid)
	cfg := t.cl.cfg
	t.charge(CompDiff, cfg.CopyNs(c.diff.DataBytes()))
	if phase == 1 {
		if pg.tentative == nil {
			pg.tentative = t.node.getPageBufZero()
			pg.tentVer = n.newVec()
		}
		pg.applyDiff(pg.tentative, pg.tentVer, n.id, itv, c.diff)
	} else {
		if pg.committed == nil {
			pg.committed = t.node.getPageBufZero()
			pg.commitVer = n.newVec()
		}
		pg.applyDiff(pg.committed, pg.commitVer, n.id, itv, c.diff)
		pg.serveWaiters(pg.commitVer, pg.committed, cfg.PageSize+64)
	}
	pg.verGate.Broadcast()
}

// saveTimestamp replicates the node's new vector time, the interval's
// update list, the self-secondary diff stash, and the releasing thread's
// point-B checkpoint at the backup node (end of phase 1, Fig. 2) — one
// atomic deposit, so the roll-forward/roll-back decision and the thread
// state it implies can never diverge. Recovery uses it to arbitrate the
// interrupted release, re-serve write notices, and rebuild committed
// copies whose only tentative replica died with this node.
func (t *Thread) saveTimestamp(itv int32, caps []capturedDiff) {
	n := t.node
	deg := t.cl.Degree()
	stash := t.rel.stash[:0]
	for _, c := range caps {
		for s := 1; s < deg; s++ {
			if t.cl.pageHomes.Replica(c.pid, s) == n.id {
				stash = append(stash, c.diff)
				break
			}
		}
	}
	t.rel.stash = stash
	snap, sz := t.encodeSnapshot(t.rel.ckpt)
	t.rel.ckpt = snap.Blob
	t.node.ckptCount++
	t.charge(CompCheckpoint, t.cl.cfg.CheckpointNs(sz))
	// The deposit is replicated at the first k-1 live ring successors
	// (the paper's k = 2: the one backup node), so any k-1 overlapping
	// failures leave at least one surviving copy of the arbitration
	// state. One fence covers the whole replicated deposit, so it is
	// atomic with respect to failures: recovery reads any survivor.
	var scratch [backupScratch]int
	for {
		backups := t.cl.backupsOf(n.id, deg-1, scratch[:0])
		t.charge(CompCheckpoint, int64(len(backups))*t.cl.cfg.NICPostOverheadNs)
		t0 := t.beginWait()
		// Every copy is the one envelope, carrying the node's shared
		// snapshot (see saveTSMsg): receivers only read it, and it is
		// rewritten only after the fence below has seen every copy land.
		m := &t.rel.save
		*m = saveTSMsg{
			Node: n.id, TS: n.vtSnapshot(), List: n.intervals[itv-1], Stash: stash,
			CkptThread: t.id, CkptHome: n.id, Snap: snap,
		}
		for _, backup := range backups {
			n.ep.Post(t.proc, backup, n.msgWire(backup, m), m)
		}
		// The deposit's bulk is the point-B thread state; the paper counts
		// remote state saving under checkpointing. A dead backup means the
		// set is reassigned: save again.
		if t.fenced(CompCheckpoint, t0, "timestamp save") {
			return
		}
	}
}
