package svm

import (
	"ftsvm/internal/model"
	"ftsvm/internal/obs"
	"ftsvm/internal/proto"
	"ftsvm/internal/vmmc"
)

// Barrier performs a global barrier over all compute threads: each node's
// last-arriving thread performs the node's release operation (committing
// and propagating the interval — the full two-phase pipeline with
// checkpointing in the extended protocol), sends the node's arrival to the
// barrier master, and all threads wait for the master's release broadcast,
// which carries the merged vector time and write notices.
//
// As with any global barrier, every thread must execute the same number
// of Barrier calls over its lifetime; a thread that stops arriving while
// others still wait would deadlock the episode. Threads that finish their
// body are excluded from subsequent episodes automatically.
func (t *Thread) Barrier() {
	t.safePoint()
	t.inBarrier = true
	defer func() { t.inBarrier = false }()

	n := t.node
	epoch := t.barSeq + 1
	if int64(n.barEpoch) >= epoch {
		// A replayed thread re-executing a barrier the cluster already
		// completed: fall through (its node performed the release then).
		t.barSeq = epoch
		return
	}
	n.barCount[epoch]++
	t.arriveIfReady(epoch)

	for int64(n.barEpoch) < epoch {
		if rel := n.barRelease; rel != nil && int64(rel.Epoch) == epoch {
			// First waiter to see the release applies it for the node.
			n.barRelease = nil
			t.applyNotices(rel.Lists, rel.VT)
			n.barEpoch = int(epoch)
			delete(n.barCount, epoch)
			n.barGate.Broadcast()
			break
		}
		t0 := t.beginWait()
		woken := n.barGate.WaitTimeout(t.proc, t.cl.cfg.BarrierWaitNs())
		t.endWait(CompBarrier, t0)
		if !woken {
			t.probeCluster()
		}
		if t.cl.rec.pending && !t.inRecovery {
			t.participateRecovery()
		}
		// Re-evaluate on every wake: a sibling thread finishing its body
		// (it will never arrive, so this waiter may now be the node's
		// last live arriver — a migrated thread replaying a shortened
		// barrier sequence exits exactly this way), or a recovery wiping
		// the in-flight arrival, can complete the node's episode with no
		// new arrival ever calling Barrier.
		t.arriveIfReady(epoch)
	}
	t.barSeq = epoch
}

// arriveIfReady performs the node-level release and ships the node's
// arrival for episode epoch once every live unfinished thread on the
// node has arrived. It is called from Barrier entry and from every
// barrier wake, so it must be idempotent: the release pipeline runs
// when an arrival completes the count and again only if new arrivals
// landed since (a migrated thread's replayed writes must be committed
// before the node's arrival ships them — but a recovery that merely
// wiped the in-flight arrival message triggers a bare resend, not a
// re-release), barSentEpoch ensures one arrival ships, and barArriving
// keeps concurrent waiters out while the releasing thread is blocked
// inside the pipeline — a second sendArrival would overwrite the first
// at the master and lose its update lists.
func (t *Thread) arriveIfReady(epoch int64) {
	n := t.node
	if int64(n.barEpoch) >= epoch || n.barSentEpoch >= epoch || n.barArriving {
		return
	}
	if n.barArrived(epoch) < n.liveThreads() {
		return
	}
	n.barArriving = true
	defer func() { n.barArriving = false }()
	if n.barReleasedEpoch < epoch || n.barReleasedCount != n.barCount[epoch] {
		n.barReleasedEpoch = epoch
		n.barReleasedCount = n.barCount[epoch]
		t.performRelease(nil)
	}
	if n.barSentEpoch < epoch && int64(n.barEpoch) < epoch {
		t.sendArrival(epoch)
	}
}

// barArrived counts threads that have satisfied episode epoch on this
// node: parked arrivals plus threads already past it. The second term is
// zero in normal operation (a thread's barSeq reaches epoch only after
// the node's own barEpoch does, and arriveIfReady returns early then) —
// it exists for migrated threads restored from a mid-barrier checkpoint,
// whose barSeq resumes at the episode their death interval completed.
// Such a thread never re-arrives at that episode on its new node, and
// without this credit the node's count could never fill.
func (n *node) barArrived(epoch int64) int {
	c := n.barCount[epoch]
	for _, s := range n.threads {
		if !s.dead && !s.finished && s.barSeq >= epoch {
			c++
		}
	}
	return c
}

// drained reports whether every thread ever hosted on this node finished
// its body — only then can the node never again arrive at a barrier
// episode. Dead threads do NOT drain a node: a missing arrival from a
// node with dead unfinished threads is an undetected failure, and the
// episode must keep waiting so the members' timeout probes detect it and
// recovery re-forms the barrier against the new membership — releasing
// without it would silently drop the dead node's remaining intervals.
func (n *node) drained() bool {
	for _, s := range n.threads {
		if !s.finished {
			return false
		}
	}
	return true
}

// liveThreads returns the number of unfinished live threads currently on
// the node (it grows when failed threads migrate here).
func (n *node) liveThreads() int {
	c := 0
	for _, s := range n.threads {
		if !s.dead && !s.finished {
			c++
		}
	}
	return c
}

// sendArrival ships the node's barrier arrival — its vector time and the
// update lists it has not yet shipped at a barrier — to the master. The
// vector time is the node's shared snapshot and the lists are a capped
// window into the interval log, as in intervalRange: the master only reads
// either.
func (t *Thread) sendArrival(epoch int64) {
	n := t.node
	end := len(n.intervals)
	lists := n.intervals[n.barSentIntervals:end:end]
	n.barSentIntervals = end
	n.barSentEpoch = epoch
	t.cl.trace(obs.KBarrierArrive, n.id, t.id, epoch)
	a := &barArrive{Epoch: int(epoch), Node: n.id, VT: n.vtSnapshot(), Lists: lists}
	master := t.cl.masterNode()
	if master == n.id {
		n.masterArrive(a)
		t.charge(CompBarrier, t.cl.cfg.ProtoOpNs)
		return
	}
	t.charge(CompBarrier, t.cl.cfg.NICPostOverheadNs)
	t0 := t.beginWait()
	n.ep.Post(t.proc, master, n.msgWire(master, a), a)
	t.endWait(CompBarrier, t0)
}

// masterNode returns the barrier master: the lowest-numbered node still in
// the cluster. (A failed-but-undetected master stalls arrivals until the
// timeout probe triggers recovery, which excludes it.)
func (cl *Cluster) masterNode() int {
	for i, n := range cl.nodes {
		if !n.excluded {
			return i
		}
	}
	panic("svm: no live nodes")
}

// masterArrive records a node's arrival and completes the episode if it
// is now fully arrived. Runs in engine or process context, never blocks.
func (n *node) masterArrive(a *barArrive) {
	if a.Epoch <= n.masterDone {
		return // stale resend for an already-released episode
	}
	byNode := n.masterArrivals[a.Epoch]
	if byNode == nil {
		byNode = make(map[int]*barArrive)
		n.masterArrivals[a.Epoch] = byNode
	}
	byNode[a.Node] = a
	n.masterTryRelease(a.Epoch)
}

// masterTryRelease merges and broadcasts episode epoch once every member
// that can still arrive has: a missing arrival blocks the release unless
// its node has drained (every thread finished). A drained node can never
// arrive — unreachable in a healthy run (a thread parks inside its final
// barrier call until the release, so its node's arrival is always either
// recorded or still owed by an unfinished thread), but a migrated thread
// replaying its post-loop barrier call arrives at an episode beyond
// everyone else's last, and that episode must complete once the rest of
// the cluster drains (noteThreadExit re-evaluates). Runs in engine or
// process context, never blocks.
func (n *node) masterTryRelease(epoch int) {
	if epoch <= n.masterDone {
		return
	}
	byNode := n.masterArrivals[epoch]
	if byNode == nil {
		return
	}
	for _, nd := range n.cl.nodes {
		if !nd.excluded && byNode[nd.id] == nil && !nd.drained() {
			return // still waiting for a member's arrival
		}
	}
	// Merge and release, in node order: ranging over the map would vary
	// the broadcast's list order between runs (harmless semantically —
	// applying update lists is commutative — but cross-run determinism of
	// the full event stream is part of the simulator's contract).
	vt := proto.NewVector(len(n.cl.nodes))
	var lists []proto.UpdateList
	for _, nd := range n.cl.nodes {
		if arr := byNode[nd.id]; arr != nil {
			vt.Merge(arr.VT)
			lists = append(lists, arr.Lists...)
		}
	}
	rel := &barRelease{Epoch: epoch, VT: vt, Lists: lists}
	n.masterDone = epoch
	n.stats.BarrierEpisodes++
	delete(n.masterArrivals, epoch)
	// Boundary: the master has merged the episode but broadcast nothing
	// yet. A master killed here strands every member mid-barrier with the
	// release undelivered — recovery must replace the master and resend
	// arrivals against the new membership.
	n.cl.trace(obs.KBarrierRelease, n.id, -1, int64(epoch))
	if n.cl.cfg.FanoutArity >= 2 {
		// Spanning-tree broadcast: deliverBarRelease forwards to this
		// node's tree children, and every receiver forwards onward.
		n.deliverBarRelease(rel)
		return
	}
	for _, nd := range n.cl.nodes {
		if nd.excluded || nd.id == n.id {
			continue
		}
		n.ep.PostSystem(nd.id, n.msgWire(nd.id, rel), rel)
	}
	n.deliverBarRelease(rel)
}

// deliverBarRelease lands a barrier release on this node; under tree
// fan-out it also forwards the release to the node's tree children from
// NI context (the Hermes-style cheap broadcast: each hop pays post, drain,
// and wire costs, but no processor is involved in relaying).
func (n *node) deliverBarRelease(rel *barRelease) {
	if int64(rel.Epoch) <= int64(n.barEpoch) {
		return
	}
	if n.cl.cfg.FanoutArity >= 2 && int64(rel.Epoch) > n.barForwarded {
		// The duplicate-forward guard: post-recovery resends may deliver
		// one epoch's release twice (old tree + new tree); each node relays
		// a given episode at most once, so no forwarding cycle can form
		// when membership — and with it the tree shape — changes between
		// deliveries.
		n.barForwarded = int64(rel.Epoch)
		for _, c := range n.cl.fanoutChildren(n.id) {
			n.ep.PostSystem(c, n.msgWire(c, rel), rel)
		}
	}
	n.barRelease = rel
	n.barGate.Broadcast()
}

// fanoutChildren returns the ids this node forwards a tree broadcast to:
// the live (non-excluded) membership is listed in ascending id order with
// the current master rotated to the root, and the node at tree index i
// has children at indexes k*i+1 .. k*i+k. The order is built once per
// membership — a recovery that excludes a node drops it, which reshapes
// the tree for every later broadcast — and the result is a window into
// it: callers only range over it.
func (cl *Cluster) fanoutChildren(self int) []int {
	if cl.fanoutOrder == nil {
		master := cl.masterNode()
		cl.fanoutOrder = append(make([]int, 0, len(cl.nodes)), master)
		cl.fanoutIndex = make([]int, len(cl.nodes))
		for id, nd := range cl.nodes {
			switch {
			case nd.excluded:
				cl.fanoutIndex[id] = -1 // excluded nodes relay nothing
			case id != master: // the master is at index 0 already
				cl.fanoutIndex[id] = len(cl.fanoutOrder)
				cl.fanoutOrder = append(cl.fanoutOrder, id)
			}
		}
	}
	idx := cl.fanoutIndex[self]
	if idx < 0 {
		return nil
	}
	lo := cl.cfg.FanoutArity*idx + 1
	if lo >= len(cl.fanoutOrder) {
		return nil
	}
	return cl.fanoutOrder[lo:min(lo+cl.cfg.FanoutArity, len(cl.fanoutOrder))]
}

// probeCluster checks node liveness; a dead node found outside a
// communication error (e.g. while waiting at a barrier) is reported to the
// failure machinery. This is the heartbeat of §4.1: in oracle mode a free
// ground-truth sweep over every node (the seed behavior; skipped, with the
// same outcome, while no node is dead but not yet excluded), in probe mode
// real probe/ack rounds through the NIC, with a failure reported only once
// the detector has confirmed ProbeMissLimit consecutive misses. With
// Config.ProbeNeighbors > 0 each probe-mode sweep covers only a rotating
// ring window of that many live peers — per-sweep traffic drops from
// O(N) probes per waiter (O(N^2) cluster-wide) to O(k), and the rotation
// guarantees every peer is still probed within ceil((N-1)/k) sweeps, so a
// failure anywhere is detected, just over a few more timeouts.
func (t *Thread) probeCluster() {
	cl := t.cl
	if cl.cfg.Detection != model.DetectProbe {
		if cl.unrecovered == 0 {
			return
		}
		for i, nd := range cl.nodes {
			if !nd.excluded && !cl.net.Alive(i) {
				cl.reportFailure(i)
			}
		}
		return
	}
	n := t.node
	targets := t.probeTargets()
	for _, i := range targets {
		t.charge(CompProtocol, cl.cfg.NICPostOverheadNs)
		t0 := t.beginWait()
		alive := n.ep.DetectRound(t.proc, i)
		t.endWait(CompProtocol, t0)
		if !alive {
			cl.reportFailure(i)
		}
	}
}

// probeTargets returns the peers this probe-mode sweep checks: every live
// peer (the paper-scale behavior), or the node's current rotating ring
// window when Config.ProbeNeighbors bounds the sweep.
func (t *Thread) probeTargets() []int {
	cl := t.cl
	n := t.node
	ring := make([]int, 0, len(cl.nodes))
	for id, nd := range cl.nodes {
		if !nd.excluded {
			ring = append(ring, id)
		}
	}
	k := cl.cfg.ProbeNeighbors
	targets := vmmc.RingWindow(ring, n.id, n.probeRot, k)
	if k > 0 && k < len(ring)-1 {
		n.probeRot += k
		if n.probeRot >= (len(ring)-1)*len(ring) {
			n.probeRot = 0 // keep the offset small; any multiple of one lap is equivalent
		}
	}
	return targets
}
