package svm

import (
	"errors"
	"fmt"
	"sort"

	"ftsvm/internal/obs"
	"ftsvm/internal/proto"
	"ftsvm/internal/sim"
	"ftsvm/internal/vmmc"
)

// recoveryState coordinates the global recovery phase of §4.5. Recovery is
// a cluster-wide barrier: every live thread must reach it (the paper's
// precondition that no releases are pending when recovery starts), then
// one thread — the coordinator — executes the recovery actions.
type recoveryState struct {
	pending bool
	deads   []int // report-order queue of this episode's unrecovered failures
	epoch   int
	arrived int
	gate    sim.Gate
	claimed bool    // a coordinator has been chosen for this episode
	coord   *Thread // the chosen coordinator, nil before the claim
}

// KillNode fail-stops a node at the current virtual time: its network
// interface dies (queued messages lost, in-flight ones deliver) and its
// threads stop at their next scheduling point, exactly like a crashed
// machine whose packets on the wire still arrive.
func (cl *Cluster) KillNode(id int) {
	if cl.eng.IsParallel() {
		// Failure injection reaches across nodes (kill the victim's
		// endpoint, its threads, every future reply) at one global
		// instant — an inherently serial operation. Injection harnesses
		// must run with Workers <= 1; they all attach a flight recorder
		// anyway, which already forces the serial fallback.
		panic("svm: KillNode requires the serial engine (Workers <= 1)")
	}
	cl.everKilled = true
	n := cl.nodes[id]
	if n.dead {
		return
	}
	cl.net.Kill(id)
	n.dead = true
	cl.unrecovered++
	cl.membershipChanged()
	for _, t := range n.threads {
		if !t.finished {
			t.dead = true
			t.proc.Kill()
		}
	}
	if cl.phase.KillNs == 0 {
		cl.phase.KillNs, cl.phase.Victim = cl.eng.Now(), id
	}
	cl.trace(obs.KKill, id, -1, 0)
}

// membershipChanged tells the online auditor that one of the three fields
// its placement checks are gated on — node.dead (KillNode), node.excluded
// and rec.pending (below) — was written. These three sites are the only
// writers, which is also what keeps Cluster.unrecovered exact.
func (cl *Cluster) membershipChanged() {
	if cl.aud != nil {
		cl.aud.memberDirty = true
	}
}

func (cl *Cluster) setRecoveryPending(p bool) {
	cl.rec.pending = p
	cl.membershipChanged()
}

// exclude removes a dead node whose recovery completed from the cluster.
func (cl *Cluster) exclude(n *node) {
	n.excluded = true
	cl.fanoutOrder = nil
	cl.unrecovered--
	cl.membershipChanged()
}

// reportFailure is called when any thread detects that a node died (a
// communication error or a liveness probe after a heartbeat timeout). The
// first report opens a recovery episode; subsequent reports of the same
// node are no-ops. With k replicas, up to k-1 overlapping failures are
// tolerated inside one episode (each item keeps a surviving copy); the
// k-th is a simultaneous failure the protocol does not tolerate — the
// generalization of §4.1's rule, which at the paper's k=2 refuses the
// second.
func (cl *Cluster) reportFailure(id int) {
	n := cl.nodes[id]
	if n.excluded {
		return
	}
	rec := &cl.rec
	if rec.pending {
		for _, d := range rec.deads {
			if d == id {
				return
			}
		}
		if len(rec.deads)+1 >= cl.Degree() || cl.LiveNodes() < cl.Degree() {
			panic(fmt.Sprintf("svm: simultaneous failures of nodes %v and %d exceed replication degree %d", rec.deads, id, cl.Degree()))
		}
		if !n.dead {
			return // false alarm
		}
		rec.deads = append(rec.deads, id)
		if cl.phase.DetectNs == 0 {
			cl.phase.DetectNs = cl.eng.Now()
		}
		cl.trace(obs.KRecoveryStart, id, -1, int64(rec.epoch))
		cl.wakeForRecovery()
		return
	}
	if !n.dead {
		return // false alarm
	}
	cl.setRecoveryPending(true)
	rec.deads = append(rec.deads[:0], id)
	rec.arrived = 0
	rec.claimed = false
	if cl.phase.DetectNs == 0 {
		cl.phase.DetectNs = cl.eng.Now()
	}
	cl.trace(obs.KRecoveryStart, id, -1, int64(rec.epoch))
	cl.wakeForRecovery()
}

// wakeForRecovery broadcasts every gate a thread might be parked on so all
// threads promptly observe the pending recovery. (In the real system this
// is the failure notification broadcast.)
func (cl *Cluster) wakeForRecovery() {
	for _, n := range cl.nodes {
		if n.dead {
			continue
		}
		n.barGate.Broadcast()
		n.releaseGate.Broadcast()
		n.idleGate.Broadcast()
		for _, ol := range n.owned {
			ol.gate.Broadcast()
		}
		for pg := range n.pt.present() {
			if pg.locked {
				pg.lockGate.Broadcast()
			}
			pg.verGate.Broadcast()
		}
	}
}

// liveThreadCount counts threads that must reach the recovery barrier.
func (cl *Cluster) liveThreadCount() int {
	c := 0
	for _, t := range cl.threads {
		if !t.dead && !t.finished {
			c++
		}
	}
	return c
}

// joinRecovery is the error-path entry to recovery: a communication
// failure was observed but the failed node may not have been reported yet,
// so probe liveness first, then enter the recovery barrier.
func (t *Thread) joinRecovery() {
	t.probeCluster()
	t.participateRecovery()
}

// joinRecoveryErr enters recovery from a communication error that names
// the failed peers. A fence joins one error per dead destination
// (vmmc.DeadNodes recovers the set): every one of them is reported, not
// just the first — with two distinct dead peers in one fence the second
// report is the simultaneous failure the single-failure model must
// refuse (§4.1), and inspecting only the first error would mask it until
// a later probe sweep happened to find the other. The confirmation is
// also fed to the probe-mode membership state, saving the probe rounds a
// full liveness sweep would spend re-discovering what the fence already
// proved. Errors naming no node (ErrAborted, a recovery-yield) fall back
// to the probing sweep.
func (t *Thread) joinRecoveryErr(err error) {
	dead := vmmc.DeadNodes(err)
	if len(dead) == 0 {
		t.probeCluster()
	} else {
		for _, id := range dead {
			t.cl.net.ConfirmDead(id)
			t.cl.reportFailure(id)
		}
	}
	t.participateRecovery()
}

// participateRecovery is the recovery barrier. Every live thread lands
// here (from safe points, aborted waits, or communication errors); the
// last arriver becomes the coordinator and performs the recovery actions
// of §4.5, after which everyone resumes.
func (t *Thread) participateRecovery() {
	cl := t.cl
	rec := &cl.rec
	if !rec.pending || t.dead || t.inRecovery {
		return
	}
	t.inRecovery = true
	defer func() { t.inRecovery = false }()
	epoch := rec.epoch
	rec.arrived++
	for rec.pending && rec.epoch == epoch {
		if rec.claimed && rec.coord != nil && rec.coord.dead {
			// The coordinator itself died mid-recovery (only reachable
			// with k > 2: at degree 2 a second overlapping failure is
			// refused). Queue its node into the episode and release the
			// claim so another arriver re-drives the actions from the
			// top — they are idempotent over whatever the dead
			// coordinator completed.
			coordNode := rec.coord.node.id
			rec.coord = nil
			rec.claimed = false
			cl.reportFailure(coordNode)
		}
		if rec.arrived >= cl.liveThreadCount() && !rec.claimed {
			rec.claimed = true
			rec.coord = t
			t.runRecovery()
			return
		}
		t0 := t.beginWait()
		rec.gate.WaitTimeout(t.proc, 4*cl.cfg.HeartbeatTimeoutNs)
		t.endWait(CompProtocol, t0)
	}
}

// noteThreadExit re-evaluates the recovery barrier when a thread finishes
// its body while a recovery is pending (it will never arrive). In a run
// that never killed a node the cross-node wakeups are spurious — barrier
// progress on a foreign node depends only on that node's own arrival
// counts — so healthy runs broadcast only the exiting thread's own node
// gate, keeping exits lane-local for the parallel engine. Failure runs
// (always serial) keep the full broadcast: a migrated thread replaying a
// shortened barrier sequence exits on its backup node, and the recovery
// barrier must re-evaluate everywhere.
func (cl *Cluster) noteThreadExit(n *node) {
	if cl.rec.pending {
		cl.rec.gate.Broadcast()
	}
	if !cl.everKilled {
		n.barGate.Broadcast()
		return
	}
	for _, m := range cl.nodes {
		m.barGate.Broadcast()
	}
	// A finished thread may have been the last arrival a pending episode
	// was waiting on (a migrated thread's replayed post-loop barrier call
	// can park at an episode beyond everyone else's final one, released
	// only once the rest of the cluster drains). Ascending order: releasing
	// an episode advances masterDone, which makes later pending ones
	// eligible and stale-drops nothing below it.
	master := cl.nodes[cl.masterNode()]
	if len(master.masterArrivals) > 0 {
		epochs := make([]int, 0, len(master.masterArrivals))
		for e := range master.masterArrivals {
			epochs = append(epochs, e)
		}
		sort.Ints(epochs)
		for _, e := range epochs {
			master.masterTryRelease(e)
		}
	}
}

// runRecovery executes the recovery actions on the coordinator thread:
//
//  1. retrieve the dead node's saved timestamp, update lists, and diff
//     stash from its backup node;
//  2. reconcile every page's two home replicas, rolling the dead node's
//     interrupted release forward or backward according to the saved
//     timestamp (§4.5.2);
//  3. reassign homes for all pages and locks the dead node held, and
//     rebuild the missing replicas from the surviving copies (§4.5.1);
//  4. rebuild lock state at the new homes from the live holders, clearing
//     the dead node's lock-vector entries;
//  5. globally synchronize memory: distribute the update lists (including
//     the dead node's replicated ones) so every node invalidates what it
//     has not seen;
//  6. resume the dead node's threads on the backup node from their last
//     checkpoints (§4.5.3).
func (t *Thread) runRecovery() {
	cl := t.cl
	rec := &cl.rec
	cfg := cl.cfg

	if cl.Degree() > 2 {
		// Membership agreement round (§4.5 step 1): a failure that
		// predates this episode but was never detected — the node went
		// silent without any survivor communicating with it — must join
		// the episode now. Rebuilding replicas while an unreported
		// failure's unsaved tentative intervals still sit in surviving
		// copies would launder them into committed state, where no later
		// recovery can cancel them (the laundered entry is
		// indistinguishable from a committed one). At degree 2 an
		// overlapping second failure is refused outright, so the seed
		// path needs no round.
		t.probeCluster()
	}
	// Process every queued death. The fetch loop re-reads len(rec.deads)
	// each pass: at k > 2 a further failure detected while the
	// coordinator's own fetch traffic fences (a backup dying
	// mid-recovery) is appended by reportFailure and fetched too. The
	// reconcile runs ONCE over the whole death set, all roll-backs
	// before all roll-forwards, and strictly before any rehoming:
	// rebuilding a replica from a copy that still awaits another dead
	// node's roll decision would freeze the pre-roll state into the
	// fresh copy. A single-dead episode runs the seed's sequence
	// verbatim.
	var saveds []*savedState
	for i := 0; i < len(rec.deads); i++ {
		saveds = append(saveds, t.fetchSavedState(rec.deads[i]))
	}
	deads := append([]int(nil), rec.deads...)
	tsOf := make([]int32, len(deads))
	for i, dead := range deads {
		tsOf[i] = saveds[i].ts[dead]
	}
	if poisonScratch {
		// The dead nodes' memory is gone, their release scratch with it:
		// nothing recovery reads may still point there.
		for _, dead := range deads {
			for _, th := range cl.nodes[dead].threads {
				th.rel.poison()
			}
		}
	}
	t.reconcilePages(deads, saveds)
	for i, dead := range deads {
		t.rehomeAndReplicate(dead, deads, tsOf)
		t.rebuildLocks(dead)
		t.globalSync(dead, saveds[i])
		t.migrateThreads(dead, saveds[i])
	}

	cl.resetBarrierPlumbing()

	for _, dead := range deads {
		cl.exclude(cl.nodes[dead])
		t.node.stats.Recoveries++
		t.charge(CompProtocol, int64(len(cl.nodes))*cfg.ProtoOpNs)
	}

	// Failures reported after the death set was snapshotted (a node dying
	// while the actions above ran) were queued into rec.deads too late to
	// be processed this episode. Carry them across the reset and re-report
	// them so they open the next episode immediately — wiping them with
	// the queue would lose the death until some later communication error
	// happened to rediscover it (or never, if no one talks to the corpse).
	leftover := append([]int(nil), rec.deads[len(deads):]...)
	done := deads
	cl.setRecoveryPending(false)
	rec.epoch++
	rec.arrived = 0
	rec.claimed = false
	rec.coord = nil
	rec.deads = rec.deads[:0]
	rec.gate.Broadcast()
	// Wake everything once more: fetch waits, barrier waits, and lock
	// spins re-evaluate against the new configuration.
	cl.wakeForRecovery()
	for _, n := range cl.nodes {
		if n.dead {
			continue
		}
		for pg := range n.pt.present() {
			if len(pg.waiters) > 0 && pg.committed != nil {
				pg.serveWaiters(pg.commitVer, pg.committed, cfg.PageSize+64)
			}
		}
	}
	if len(done) > 0 && cl.phase.RecoverNs == 0 {
		cl.phase.RecoverNs = cl.eng.Now()
	}
	for _, dead := range done {
		cl.trace(obs.KRecoveryDone, dead, t.id, int64(rec.epoch))
	}
	for _, id := range leftover {
		cl.reportFailure(id)
	}
}

// resetBarrierPlumbing rebuilds the cluster's barrier state against the
// post-recovery membership: in-flight arrivals may be stale (dead master
// or dead member), so everything is resent against the new membership.
func (cl *Cluster) resetBarrierPlumbing() {
	for _, n := range cl.nodes {
		if n.dead {
			continue
		}
		n.masterArrivals = make(map[int]map[int]*barArrive)
		n.barSentEpoch = 0
	}
	// Nodes stuck one episode behind a completed one roll forward: the
	// global sync already delivered the consistency information.
	maxDone := 0
	for _, n := range cl.nodes {
		if !n.dead && n.barEpoch > maxDone {
			maxDone = n.barEpoch
		}
	}
	for _, n := range cl.nodes {
		if !n.dead && n.barEpoch < maxDone && n.barCount[int64(n.barEpoch+1)] > 0 {
			n.barEpoch = maxDone
		}
	}
	for _, n := range cl.nodes {
		if n.dead {
			continue
		}
		// Drop arrival counts for episodes at or below the roll-forward
		// horizon. The old code deleted only barCount[maxDone] on the node
		// being rolled forward; every skipped intermediate epoch leaked a
		// map entry forever — invisible at the paper's 8 nodes, unbounded
		// at 64+ where recoveries skip more episodes.
		for e := range n.barCount {
			if e <= int64(maxDone) {
				delete(n.barCount, e)
			}
		}
		// A release the dead master broadcast but no thread here applied yet
		// is stale: applying it after the reset would advance this node past
		// an episode the new master still expects an arrival for (barSentEpoch
		// was just cleared), deadlocking the barrier — the master waits on an
		// arrival this node will never resend. Clear it; the episode is
		// re-merged from the resent arrivals. Releases at or below maxDone
		// completed cluster-wide and stay consumable.
		if rel := n.barRelease; rel != nil && int64(rel.Epoch) > int64(maxDone) {
			n.barRelease = nil
		}
		// Under tree fan-out the re-broadcast of an episode this node already
		// relayed once must be relayed again on the post-recovery tree, or
		// its new subtree never hears the release.
		if n.barForwarded > int64(maxDone) {
			n.barForwarded = int64(maxDone)
		}
	}
}

// savedState is the dead node's replicated protocol state.
type savedState struct {
	ts    proto.VectorTime
	lists []proto.UpdateList
}

// fetchSavedState retrieves the dead node's saved timestamp and lists from
// its backup. With k > 2 replicas the deposit was replicated to the dead
// node's first k-1 live ring successors, so a backup dying mid-fetch is
// tolerated: the new failure is reported (joining the open episode) and
// the fetch walks on to the next surviving deposit holder. At k = 2 the
// single deposit holder dying is unrecoverable, exactly the seed rule.
func (t *Thread) fetchSavedState(dead int) *savedState {
	cl := t.cl
	for {
		backup := cl.backupOf(dead)
		bn := cl.nodes[backup]
		out := &savedState{ts: proto.NewVector(cl.cfg.Nodes)}
		if backup == t.node.id {
			if ts, ok := bn.savedTS[dead]; ok {
				out.ts = ts.Clone()
				out.lists = bn.savedLists[dead]
			}
			t.charge(CompProtocol, cl.cfg.ProtoOpNs)
			return out
		}
		req := &savedReq{Dead: dead}
		t0 := t.beginWait()
		v, err := t.node.ep.Request(t.proc, backup, req.wireBytes(), req)
		t.endWait(CompProtocol, t0)
		if err != nil {
			if errors.Is(err, vmmc.ErrNodeDead) {
				if cl.Degree() > 2 {
					for _, id := range vmmc.DeadNodes(err) {
						cl.net.ConfirmDead(id)
						cl.reportFailure(id)
					}
					continue
				}
				panic("svm: backup node died during recovery (simultaneous failure)")
			}
			panic(fmt.Sprintf("svm: fetch saved state: %v", err))
		}
		rep := v.(*savedReply)
		if rep.Have {
			out.ts = rep.TS.Clone()
			out.lists = rep.Lists
		}
		return out
	}
}
