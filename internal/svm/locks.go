package svm

import (
	"errors"
	"fmt"

	"ftsvm/internal/obs"
	"ftsvm/internal/proto"
	"ftsvm/internal/vmmc"
)

// Acquire obtains application lock l with acquire consistency: after it
// returns, every shared write that precedes the acquire in the lazy
// release consistency partial order has been made visible (the
// corresponding pages invalidated). Lock exchange between threads on the
// same node needs no messages.
func (t *Thread) Acquire(l int) {
	t.safePoint()
	n := t.node
	ol := n.lockState(l)
	for {
		if ol.held && ol.holder == nil {
			// Intra-SMP handoff: the node owns the lock and no thread is
			// inside the critical section.
			ol.holder = t
			t.locksHeld++
			t.node.stats.IntraNodeHandoffs++
			return
		}
		if ol.held || ol.busy {
			// Another local thread holds it or is acquiring it remotely.
			ol.localWaiters++
			t0 := t.beginWait()
			ol.gate.WaitTimeout(t.proc, 4*t.cl.cfg.HeartbeatTimeoutNs)
			t.endWait(CompLock, t0)
			ol.localWaiters--
			t.safePoint()
			continue
		}
		break
	}
	ol.busy = true
	var vt proto.VectorTime
	switch t.cl.opt.LockAlgo {
	case LockPolling:
		vt = t.pollingAcquire(l)
	case LockQueue:
		vt = t.queueAcquire(l)
	case LockNIC:
		vt = t.nicAcquire(l)
	}
	ol.busy = false
	n.setHeld(l, true)
	ol.holder = t
	t.locksHeld++
	if t.cl.lockHomes.Primary(l) != n.id {
		// Only acquires that actually went to a remote home count; a
		// primary-home node acquires through local state, no message.
		t.node.stats.RemoteAcquires++
	}
	t.cl.trace(obs.KLockHeld, n.id, t.id, int64(l))
	// Acquire-side consistency: fetch the missing write notices and
	// invalidate (the releaser's timestamp travels with the lock).
	if vt != nil && !t.node.vt.Covers(vt) {
		t.fetchUpdates(vt)
	}
}

// Release releases lock l, performing the release operation of the
// protocol in use (interval commit and diff propagation; in the extended
// protocol the full two-phase pipeline with checkpointing). The lock
// becomes available to the next requester at the protocol's visibility
// point.
func (t *Thread) Release(l int) {
	t.safePoint()
	ol := t.node.lockState(l)
	if !ol.held || ol.holder != t {
		panic(fmt.Sprintf("svm: thread %d releases lock %d it does not hold", t.id, l))
	}
	t.performRelease(func() { t.handOver(l, ol) })
	t.locksHeld--
}

// handOver passes the lock on: to a waiting local thread for free, to a
// forwarded remote requester (queue lock), or back to the lock home(s)
// (polling lock).
func (t *Thread) handOver(l int, ol *ownedLock) {
	n := t.node
	ol.holder = nil
	if t.cl.opt.LockAlgo == LockQueue {
		ol.releaseVT = n.vtSnapshot()
	}
	switch {
	case t.cl.opt.LockAlgo == LockQueue && ol.pendingGrant >= 0:
		// A remote requester was forwarded to us; grant directly.
		dst := ol.pendingGrant
		ol.pendingGrant = -1
		n.setHeld(l, false)
		t.cl.trace(obs.KLockRelease, n.id, t.id, int64(l))
		g := &qlGrant{Lock: l, VT: n.vtSnapshot()}
		t.charge(CompLock, t.cl.cfg.NICPostOverheadNs)
		n.ep.PostSystem(dst, n.msgWire(dst, g), g)
		ol.gate.Broadcast() // local waiters must re-contend remotely
	case ol.localWaiters > 0:
		// Intra-SMP exchange: keep node ownership, wake a local waiter.
		ol.gate.Broadcast()
	case t.cl.opt.LockAlgo == LockPolling || t.cl.opt.LockAlgo == LockNIC:
		// Return the lock: clear our element and store our timestamp at
		// the home(s), atomically per home.
		n.setHeld(l, false)
		t.cl.trace(obs.KLockRelease, n.id, t.id, int64(l))
		// Refill the envelope only while nothing this node posted is in
		// flight: every copy of the last release has landed, and no home
		// keeps one (DESIGN §6). It is out of ol while its copies are
		// posted, since a post may yield to a sibling's handOver.
		rel := ol.rel
		switch {
		case rel == nil || n.ep.InFlight() > 0:
			rel = new(lockRelease)
		case poisonScratch:
			// Poison it and post a new one, so a copy still on the wire
			// would deliver lock -1 (the shared snapshot is dropped).
			*rel = lockRelease{Lock: -1, Node: -1}
			rel = new(lockRelease)
		}
		ol.rel = nil
		*rel = lockRelease{Lock: l, Node: n.id, VT: n.vtSnapshot()}
		t.postLockReplicas(l, rel)
		ol.rel = rel
	default:
		// Queue lock, uncontended: the lock stays cached on this node;
		// the home still records us as tail and forwards future requests.
	}
}

// lockState returns (creating on demand) the node's acquirer-side state
// for lock l.
func (n *node) lockState(l int) *ownedLock {
	ol := n.owned[l]
	if ol == nil {
		ol = &ownedLock{
			pendingGrant: -1,
			set:          lockSet{Lock: l, Node: n.id},
			clr:          lockClear{Lock: l, Node: n.id},
			read0:        lockRead{Lock: l},
		}
		ol.read0.Reply = &ol.reply0
		ol.read = &ol.read0
		n.owned[l] = ol
	}
	return ol
}

// setHeld is the one place a node's ownership of lock l changes, so the
// online auditor sees every transition (the lock-side counterpart of the
// page funnels in pagetable.go; initLockHome is the funnel for the
// home-side replica state).
func (n *node) setHeld(l int, held bool) {
	n.lockState(l).held = held
	n.touchLock(l)
}

// touchLock reports (node, lock) to the auditor's touched list.
func (n *node) touchLock(l int) {
	if a := n.cl.aud; a != nil {
		a.locks = append(a.locks, lockTouch{int32(n.id), int32(l)})
	}
}

// postLockReplicas posts lock message m to l's primary home and then, in
// the extended protocol, to each secondary, applying it locally where this
// node is the home.
func (t *Thread) postLockReplicas(l int, m wireMsg) {
	n := t.node
	k := 1
	if t.cl.opt.Mode == ModeFT {
		k = t.cl.lockHomes.Degree()
	}
	for s := 0; s < k; s++ {
		dst := t.cl.lockHomes.Replica(l, s)
		size := n.msgWire(dst, m)
		if dst == n.id {
			n.applyLockMsg(n.id, m)
			t.charge(CompLock, t.cl.cfg.ProtoOpNs)
			continue
		}
		t.charge(CompLock, t.cl.cfg.NICPostOverheadNs)
		t0 := t.beginWait()
		n.ep.Post(t.proc, dst, size, m)
		t.endWait(CompLock, t0)
	}
}

// backoff sleeps a contended acquirer for a uniform draw from [lo, hi),
// or lo when the window is empty, and charges the sleep to lock time.
func (t *Thread) backoff(lo, hi int64) {
	d := lo
	if span := hi - lo; span > 0 {
		d += t.proc.Int63n(span)
	}
	t0 := t.beginWait()
	t.proc.Advance(d)
	t.endWait(CompLock, t0)
}

// pollingAcquire runs the paper's centralized polling algorithm (§4.3):
// remote-write our element into the lock vector at the home(s), read the
// whole vector from the primary home, and if any other element is set,
// clear ours, back off, and retry.
func (t *Thread) pollingAcquire(l int) proto.VectorTime {
	n := t.node
	cfg := t.cl.cfg
	ft := t.cl.opt.Mode == ModeFT
	// The round's messages are constants of (node, lock): the same
	// pointers are posted every round and to every replica.
	ol := n.lockState(l)
	set, clr := &ol.set, &ol.clr
	spinStart := t.proc.Now()
	for {
		t.safePoint()
		// Heartbeat (§4.1): a holder that died leaves its element set
		// forever; after spinning past the timeout, probe liveness so the
		// failure is detected even though the lock home itself is healthy.
		if ft && t.proc.Now()-spinStart > 4*cfg.HeartbeatTimeoutNs {
			t.probeCluster()
			spinStart = t.proc.Now()
		}
		// FT ordering invariant: every secondary's element is posted
		// before the primary read below, and per-sender FIFO delivers
		// them first — so by the time the read reply grants the lock,
		// all secondary replicas already record the new holder.
		prim := t.cl.lockHomes.Primary(l)
		t.postLockReplicas(l, set)
		rep, err := t.lockReadVector(l, prim)
		if err != nil {
			t.joinRecoveryErr(err)
			continue
		}
		if rep.Sole {
			return rep.VT
		}
		// Contended: clear our element and back off.
		t.postLockReplicas(l, clr)
		t.backoff(cfg.LockBackoffMinNs, cfg.LockBackoffMaxNs)
	}
}

// lockReadVector fetches the lock vector and stored timestamp from the
// primary home into the (node, lock) read envelope and returns it.
func (t *Thread) lockReadVector(l, prim int) (*lockReadReply, error) {
	n := t.node
	ol := n.lockState(l)
	req := ol.read
	if req.Reply.VT == nil {
		req.Reply.VT = n.newVec()
	}
	if prim == n.id {
		t.charge(CompLock, t.cl.cfg.ProtoOpNs)
		return n.lockHomesState[l].readReply(n.id, req.Reply), nil
	}
	t0 := t.beginWait()
	v, err := n.ep.RequestAbort(t.proc, prim, req.wireBytes(), req,
		func() bool { return t.cl.rec.pending })
	t.endWait(CompLock, t0)
	if err != nil {
		// The home may still answer the request and fill its envelope later.
		ol.read = &lockRead{Lock: l, Reply: &lockReadReply{}}
		if errors.Is(err, vmmc.ErrNodeDead) || errors.Is(err, vmmc.ErrAborted) {
			return nil, err
		}
		panic(fmt.Sprintf("svm: lock %d read: %v", l, err))
	}
	if v != req.Reply {
		panic("svm: lock read reply is not the request's envelope")
	}
	return req.Reply, nil
}

// readReply answers reader's read of the lock vector in rep, the reader's
// envelope, and returns it. The modelled reply carries the whole vector
// and the stored timestamp; the acquirer reads only whether it is the sole
// holder and, if so, the timestamp, so that is all the envelope is given.
func (lh *lockHome) readReply(reader int, rep *lockReadReply) *lockReadReply {
	rep.Count, rep.Sole, rep.vtLen = 0, false, len(lh.vt)
	for _, set := range lh.vec {
		if set {
			rep.Count++
		}
	}
	if rep.Count == 1 && lh.vec[reader] {
		rep.Sole = true
		copy(rep.VT, lh.vt)
	}
	return rep
}

// nicAcquire runs the NIC-assisted lock: one test-and-set round trip to
// the primary home. Under ModeFT the primary home's NIC replicates the
// owner element at the secondary home before the grant reply leaves (see
// nicTestAndSet) — the acquirer itself never touches the secondary.
// Contended attempts back off briefly and retry.
func (t *Thread) nicAcquire(l int) proto.VectorTime {
	n := t.node
	cfg := t.cl.cfg
	ft := t.cl.opt.Mode == ModeFT
	spinStart := t.proc.Now()
	for {
		t.safePoint()
		if ft && t.proc.Now()-spinStart > 4*cfg.HeartbeatTimeoutNs {
			t.probeCluster()
			spinStart = t.proc.Now()
		}
		prim := t.cl.lockHomes.Primary(l)
		var rep *nicTestSetReply
		if prim == n.id {
			rep = n.nicTestAndSet(&nicTestSet{Lock: l, Node: n.id})
			t.charge(CompLock, t.cl.cfg.ProtoOpNs)
		} else {
			req := &nicTestSet{Lock: l, Node: n.id}
			t0 := t.beginWait()
			v, err := n.ep.RequestAbort(t.proc, prim, req.wireBytes(), req,
				func() bool { return t.cl.rec.pending })
			t.endWait(CompLock, t0)
			if err != nil {
				if errors.Is(err, vmmc.ErrNodeDead) || errors.Is(err, vmmc.ErrAborted) {
					t.joinRecoveryErr(err)
					continue
				}
				panic(fmt.Sprintf("svm: nic lock %d: %v", l, err))
			}
			rep = v.(*nicTestSetReply)
		}
		if rep.Granted {
			return rep.VT
		}
		t.backoff(cfg.LockBackoffMinNs/2, cfg.LockBackoffMaxNs/2)
	}
}

// nicTestAndSet is the home-side atomic test-and-set. Runs in engine or
// process context.
//
// Under ModeFT the grant and its replication used to race: the acquirer
// posted the lockSet to the secondary home only after receiving the
// grant, so a failure of the acquirer (or of this primary home) in that
// window left the secondary with no owner element and recovery could
// grant the lock twice. The primary home's NIC now drives the
// replication itself, enqueueing the lockSet before the grant reply —
// per-sender FIFO then guarantees the secondary's element lands before
// any consequence of the grant is observable, closing the window (the
// auditor's lock-replication invariant checks exactly this).
func (n *node) nicTestAndSet(m *nicTestSet) *nicTestSetReply {
	n.initLockHome(m.Lock)
	lh := n.lockHomesState[m.Lock]
	for _, set := range lh.vec {
		if set {
			return &nicTestSetReply{Granted: false, VT: nil}
		}
	}
	lh.vec[m.Node] = true
	if n.cl.opt.Mode == ModeFT {
		for s := 1; s < n.cl.lockHomes.Degree(); s++ {
			if sec := n.cl.lockHomes.Replica(m.Lock, s); sec != n.id {
				set := &lockSet{Lock: m.Lock, Node: m.Node}
				n.sendOrDeliver(sec, set, set.wireBytes())
			}
		}
	}
	n.cl.trace(obs.KLockGrant, n.id, -1, int64(m.Lock))
	return &nicTestSetReply{Granted: true, VT: lh.vt.Clone()}
}

// queueAcquire runs GeNIMA's distributed queuing lock: ask the home, which
// either grants (lock at home) or forwards us to the current tail; the
// grant arrives as a direct message from the previous holder.
func (t *Thread) queueAcquire(l int) proto.VectorTime {
	n := t.node
	fut := t.cl.eng.NewFuture()
	n.qlWait[l] = fut
	home := t.cl.lockHomes.Primary(l)
	req := &qlAcquire{Lock: l, Requester: n.id}
	if home == n.id {
		n.applyLockMsg(n.id, req)
		t.charge(CompLock, t.cl.cfg.ProtoOpNs)
	} else {
		t.charge(CompLock, t.cl.cfg.NICPostOverheadNs)
		t0 := t.beginWait()
		n.ep.Post(t.proc, home, req.wireBytes(), req)
		t.endWait(CompLock, t0)
	}
	t0 := t.beginWait()
	v, err := t.proc.Await(fut)
	t.endWait(CompLock, t0)
	if err != nil {
		panic(fmt.Sprintf("svm: queue lock %d: %v", l, err))
	}
	delete(n.qlWait, l)
	return v.(*qlGrant).VT
}

// applyLockMsg is the home-side lock state machine, shared by the message
// handler and the local fast path. Runs in engine or process context and
// never blocks.
func (n *node) applyLockMsg(src int, payload any) {
	switch m := payload.(type) {
	case *lockSet:
		lh := n.lockHomesState[m.Lock]
		if lh != nil {
			lh.vec[m.Node] = true
			n.cl.trace(obs.KLockSet, n.id, -1, int64(m.Lock))
		}
	case *lockClear:
		lh := n.lockHomesState[m.Lock]
		if lh != nil {
			lh.vec[m.Node] = false
			n.cl.trace(obs.KLockClear, n.id, -1, int64(m.Lock))
		}
	case *lockRelease:
		lh := n.lockHomesState[m.Lock]
		if lh != nil {
			lh.vt.Merge(m.VT)
			lh.vec[m.Node] = false
			n.cl.trace(obs.KLockClear, n.id, -1, int64(m.Lock))
		}
	case *qlAcquire:
		lh := n.lockHomesState[m.Lock]
		if lh == nil {
			return
		}
		if lh.tail < 0 {
			// Free at home: grant with the home-stored timestamp.
			lh.tail = m.Requester
			g := &qlGrant{Lock: m.Lock, VT: lh.vt.Clone()}
			n.sendOrDeliver(m.Requester, g, n.msgWire(m.Requester, g))
		} else {
			old := lh.tail
			lh.tail = m.Requester
			f := &qlForward{Lock: m.Lock, Requester: m.Requester}
			n.sendOrDeliver(old, f, f.wireBytes())
		}
	case *qlForward:
		ol := n.lockState(m.Lock)
		if ol.held && ol.holder == nil && ol.localWaiters == 0 && !ol.busy {
			// Cached and idle: grant immediately.
			n.setHeld(m.Lock, false)
			g := &qlGrant{Lock: m.Lock, VT: ol.releaseVT}
			n.sendOrDeliver(m.Requester, g, n.msgWire(m.Requester, g))
		} else {
			ol.pendingGrant = m.Requester
		}
	case *qlGrant:
		// A grant with no live waiter is unreachable, so a silent drop
		// here could only mask a protocol bug (the home still records
		// the requester as tail, so the lock would be stranded forever).
		// Proof: a grant targets node X only (a) from the home, when X's
		// qlAcquire found the lock free (tail < 0), or (b) from a
		// previous holder serving the qlForward the home sent for X's
		// qlAcquire — exactly one grant per qlAcquire, since the home
		// either grants or forwards, never both. X posts a qlAcquire
		// only from queueAcquire, which registers qlWait[l] before
		// posting and deletes it only after the future resolves; ol.busy
		// serializes the node's acquires of l, so a second qlAcquire
		// cannot be posted while the first future is outstanding. The
		// queue lock has no FT variant (New rejects the combination),
		// so no failure/migration path can orphan the future either.
		fut, ok := n.qlWait[m.Lock]
		if !ok || fut.Done() {
			panic(fmt.Sprintf("svm: node %d: stray queue-lock grant for lock %d (no pending acquire)", n.id, m.Lock))
		}
		n.cl.trace(obs.KLockGrant, n.id, -1, int64(m.Lock))
		fut.Resolve(m)
	}
}

// sendOrDeliver posts a system message, short-circuiting self-sends.
func (n *node) sendOrDeliver(dst int, payload any, size int) {
	if dst == n.id {
		n.applyLockMsg(n.id, payload)
		return
	}
	n.ep.PostSystem(dst, size, payload)
}
