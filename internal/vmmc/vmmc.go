// Package vmmc simulates the cluster's communication substrate: a
// Myrinet-class system area network driven through a VMMC-like user-level
// interface.
//
// The modeled behaviours are the ones the paper's evaluation depends on:
//
//   - Asynchronous sends go through a bounded per-node post queue; when the
//     queue fills (diff bursts at releases), the sending processor blocks
//     until the NIC drains it.
//   - The NIC drains one message at a time, paying a per-message overhead
//     plus size-proportional DMA time; delivery lands one link latency
//     later, in FIFO order per sender.
//   - Deposits and fetch replies are applied at the destination without
//     involving the destination processor (remote deposit / remote fetch).
//   - Messages to a failed node are dropped and surface as errors at the
//     sender's next Fence; requests to a failed node error out after the
//     heartbeat timeout. A failed node's queued-but-undrained messages are
//     lost, while messages already on the wire still deliver — exactly the
//     partial-propagation window the extended protocol must tolerate.
package vmmc

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
	"ftsvm/internal/sim"
)

// ErrNodeDead is returned by communication operations once the peer is
// known to have failed.
var ErrNodeDead = errors.New("vmmc: destination node failed")

// DeadError is one failed destination observed by a send or request. It
// wraps ErrNodeDead (errors.Is matches as before) and carries the node
// id as data, so multi-failure handling can learn *every* dead peer from
// a joined fence error instead of only the textually-first one.
type DeadError struct {
	Node int
	Op   string // "post" or "request"
}

func (e *DeadError) Error() string {
	return fmt.Sprintf("%s to node %d: %v", e.Op, e.Node, ErrNodeDead)
}

func (e *DeadError) Unwrap() error { return ErrNodeDead }

// DeadNodes extracts every distinct dead destination named in err,
// walking joined (Unwrap() []error) and wrapped (Unwrap() error) trees,
// sorted ascending. A fence over posts to several failed peers joins one
// DeadError per destination; callers that inspect only errors.Is learn
// that *a* peer died but not *which ones* — this recovers the full set.
func DeadNodes(err error) []int {
	seen := map[int]bool{}
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if de, ok := e.(*DeadError); ok {
			seen[de.Node] = true
			return
		}
		switch u := e.(type) {
		case interface{ Unwrap() []error }:
			for _, c := range u.Unwrap() {
				walk(c)
			}
		case interface{ Unwrap() error }:
			walk(u.Unwrap())
		}
	}
	walk(err)
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// MsgHeaderBytes is the modeled wire overhead added to every message.
const MsgHeaderBytes = 32

// Delivery is a message arriving at an endpoint. Handlers run in engine
// context and must not block; a handler that cannot reply yet (e.g. a page
// fetch waiting for a version) stores the Delivery and calls Reply later.
//
// Deliveries are pooled: a handler may retain one past its own return only
// while a reply is still owed (NeedsReply), and the deferred Reply is the
// last use. One-way deliveries are recycled as soon as the handler returns.
type Delivery struct {
	Src     int
	Payload any
	Size    int

	dst      *Endpoint
	call     *pendingCall
	spare    *wireEvt // the request's spare event, for the reply's delivery
	deferred bool     // handler kept it for a later Reply; Reply recycles it
}

// NeedsReply reports whether the sender is blocked in Request waiting for
// Reply to be called.
func (d *Delivery) NeedsReply() bool { return d.call != nil }

// Reply sends the response for a Request delivery. It may be called from
// the handler immediately or from any later engine-context point. Replies
// are generated by the network interface, so they consume no destination
// CPU, but they do occupy the replying node's NIC and wire.
func (d *Delivery) Reply(payload any, size int) {
	if d.call == nil {
		panic("vmmc: Reply on a one-way message")
	}
	call := d.call
	d.call = nil
	d.dst.enqueue(outMsg{
		dst:     d.Src,
		size:    size + MsgHeaderBytes,
		payload: payload,
		replyTo: call,
		spare:   d.spare,
		system:  true,
	})
	if d.deferred {
		d.dst.putDelivery(d)
	}
}

// Handler receives every message addressed to an endpoint.
type Handler func(d *Delivery)

// pendingCall is the requester's side of one outstanding request; it
// embeds its future by value. Calls are recycled through the endpoint's
// callFree under one rule: a call goes back only when the reply itself
// resolved its future, because then nothing else names it — the reply was
// delivered exactly once and the request it answers is off the wire. A
// call abandoned by a timeout into a dead-node verdict, by the abort
// predicate or by a DeadError is never reused: a late reply, a
// retransmission or the retransmission give-up may still complete it.
type pendingCall struct {
	fut sim.Future
}

// getCall returns a pending call; ep must be the requester.
func (ep *Endpoint) getCall() *pendingCall {
	var pc *pendingCall
	if k := len(ep.callFree); k > 0 {
		pc = ep.callFree[k-1]
		ep.callFree = ep.callFree[:k-1]
	} else {
		pc = &pendingCall{}
	}
	ep.net.eng.InitFuture(&pc.fut)
	return pc
}

type outMsg struct {
	dst     int
	size    int
	payload any
	call    *pendingCall // set on requests: the sender-side future
	replyTo *pendingCall // set on replies: resolve this at the destination
	spare   *wireEvt     // requests, then their replies: see wireEvt
	system  bool         // system messages (replies) bypass the depth limit
	retx    bool         // retransmission: exempt from the drop counter
	probe   bool         // liveness probe/ack: outside Fence accounting
}

// wireEvt is a pooled, pre-bound event for the per-message NIC/wire
// callbacks (drain completion, delivery, retransmission, acknowledgement,
// reply outcome). Each pooled instance allocates its run closure exactly
// once; reusing the instance reuses the closure, so the steady-state wire
// path schedules millions of events without allocating any.
//
// An instance returns to the pool of the endpoint in whose lane it fires,
// so the pools stay level only if every message that takes an event from A
// to B is answered by one that brings an event back. A one-way post is:
// its delivery goes A to B, its acknowledgement B to A. A request/reply
// round trip has a third crossing — the reply's delivery, home to
// requester — which on the home's own events would drain the home's pool
// (two objects per reply once it runs dry: the event and its bound
// closure) and grow the requester's by one per request, for the life of
// the cluster. So a request carries one spare event out of the requester's
// pool (outMsg to Delivery to Reply's outMsg) and the home fires the
// reply's delivery on it: a round trip leaves both pools as it found them,
// and the spare changes lanes only inside a message, as the per-lane rule
// requires. A spare whose request or reply is lost to a dead node is
// simply dropped.
type wireEvt struct {
	kind uint8
	ep   *Endpoint
	m    outMsg
	run  func()

	// peer links a reply's evtDeliver to its sender-side evtOutcome: the
	// delivery marks delivered on the outcome so a destination killed at
	// the delivery boundary (after the reply was processed) still
	// completes the sender's fence cleanly. Serial mode only — under the
	// parallel engine nodes never die, the outcome ignores the flag, and
	// the cross-lane write is skipped.
	peer      *wireEvt
	delivered bool
}

const (
	evtTransmit uint8 = iota // drain finished: release the slot, put m on the wire
	evtDeliver               // link latency elapsed: land m at its destination
	evtRetx                  // retransmission timeout elapsed: resend m
	evtAck                   // acknowledgement returned: complete the post to m.dst
	evtOutcome               // reply outcome at the sender: complete the post for a reply
)

// getEvt allocates from ep's pool; ep must be the endpoint in whose lane
// the caller is executing. actor is the endpoint the event acts for (the
// transmitting endpoint for wire events, the original sender for acks).
// fire returns each instance to the pool of the endpoint in whose lane
// the event fires, so instances migrate between per-lane pools only
// through lane-local operations.
func (ep *Endpoint) getEvt(kind uint8, actor *Endpoint, m outMsg) *wireEvt {
	w := ep.takeEvt()
	w.kind, w.ep, w.m = kind, actor, m
	return w
}

// takeEvt takes an unset instance out of ep's pool.
func (ep *Endpoint) takeEvt() *wireEvt {
	if k := len(ep.evtFree); k > 0 {
		w := ep.evtFree[k-1]
		ep.evtFree[k-1] = nil
		ep.evtFree = ep.evtFree[:k-1]
		return w
	}
	w := &wireEvt{}
	w.run = w.fire
	return w
}

func (ep *Endpoint) putEvt(w *wireEvt) {
	ep.evtFree = append(ep.evtFree, w)
}

// fire executes the event and returns the instance to the firing lane's
// endpoint pool. The pool return happens first so nested scheduling
// inside the action can reuse it.
func (w *wireEvt) fire() {
	kind, ep, m := w.kind, w.ep, w.m
	peer, delivered := w.peer, w.delivered
	n := ep.net
	w.ep, w.m, w.peer, w.delivered = nil, outMsg{}, nil, false
	switch kind {
	case evtTransmit:
		ep.putEvt(w)
		if !m.system {
			ep.sem.Release()
		}
		ep.transmit(m)
	case evtDeliver:
		n.eps[m.dst].putEvt(w)
		n.deliver(ep, m, peer)
	case evtRetx:
		ep.putEvt(w)
		ep.transmit(m)
	case evtAck:
		ep.putEvt(w)
		ep.completePost(m.dst, nil)
	case evtOutcome:
		ep.putEvt(w)
		ep.replyOutcome(m, delivered)
	}
}

// getDelivery allocates from ep's pool; ep must be the destination, in
// whose lane both the handler and any deferred Reply run.
func (ep *Endpoint) getDelivery(src int, m outMsg) *Delivery {
	var d *Delivery
	if k := len(ep.delFree); k > 0 {
		d = ep.delFree[k-1]
		ep.delFree[k-1] = nil
		ep.delFree = ep.delFree[:k-1]
	} else {
		d = &Delivery{}
	}
	*d = Delivery{Src: src, Payload: m.payload, Size: m.size, dst: ep, call: m.call, spare: m.spare}
	return d
}

func (ep *Endpoint) putDelivery(d *Delivery) {
	*d = Delivery{}
	ep.delFree = append(ep.delFree, d)
}

// Stats counts an endpoint's traffic; the evaluation's contention arguments
// are about these volumes.
type Stats struct {
	MsgsSent     int64
	BytesSent    int64
	MsgsReceived int64
	PostStallsNs int64 // time senders spent blocked on a full post queue
}

// Endpoint is one node's network interface.
type Endpoint struct {
	id  int
	net *Network
	// ln is the simulation lane this endpoint's events execute on (node
	// i's lane). On a serial engine the lane is a thin delegate and
	// scheduling is unchanged; under Parallel every endpoint event —
	// drains, transmits, retransmissions — runs in this lane, and the
	// only cross-lane handoffs are wire deliveries and acks, both
	// carrying at least one link latency of delay (the lookahead).
	ln *sim.Lane

	handler Handler

	// queue is the post queue, consumed by head index: popping via
	// queue[1:] would strand the backing array's head and force append to
	// reallocate on every message.
	queue    []outMsg
	qhead    int
	sem      *sim.Semaphore // post-queue depth
	draining bool
	drainFn  func() // pre-bound drainNext; enqueue schedules it allocation-free

	inFlight  int
	fenceGate sim.Gate
	sendErrs  []error
	errDst    map[int]bool // destinations already represented in sendErrs

	// lastArrivalNs clamps chaos-jittered deliveries monotone: per-sender
	// FIFO order is part of the VMMC contract and protocol invariants
	// (lock-grant replication before the grant reply) depend on it.
	lastArrivalNs int64

	// probeWait holds the futures of outstanding liveness probes by
	// sequence number; a late ack finds its entry gone and is discarded.
	probeSeq  uint64
	probeWait map[uint64]*sim.Future

	dead bool

	stats Stats

	// evtFree / delFree recycle the per-message wire events and Delivery
	// envelopes. The pools are per-endpoint so each is only ever touched
	// from its own lane: getEvt allocates in the lane doing the
	// scheduling, fire frees into the pool of the endpoint in whose lane
	// the event fires, and getDelivery/putDelivery run at the
	// destination. Instances migrate between pools only through those
	// lane-local operations, so no pool needs locking under Parallel.
	evtFree  []*wireEvt
	delFree  []*Delivery
	callFree []*pendingCall // see pendingCall for when a call may return here
}

// Network is the simulated SAN connecting all endpoints.
type Network struct {
	eng *sim.Engine
	cfg *model.Config
	eps []*Endpoint

	// dropNth deterministically drops every n-th data packet on first
	// transmission (0 = lossless). VMMC masks such transient errors with
	// retransmission, which the simulation reproduces: the sender's NIC
	// detects the missing acknowledgement after a timeout and resends, so
	// upper layers only observe added latency.
	dropNth     int
	sendSeq     int
	Retransmits int64
	RetxBytes   int64 // wire bytes consumed by retransmissions (not in Stats.BytesSent)

	// chaosRng drives the chaos layer's jitter. It is separate from the
	// engine RNG so enabling chaos never perturbs protocol-level random
	// choices (lock backoff), and chaos-off runs stay bit-identical.
	chaosRng *rand.Rand

	// Probe-mode failure detector: cluster-wide suspicion state, modeling
	// the membership service every node's probes feed. The probes that
	// feed it are real messages paying real costs.
	missCount       []int   // consecutive unacknowledged probes per node
	confirmedDead   []bool  // suspicion confirmed: ProbeMissLimit misses on a dead node
	suspectNs       []int64 // virtual time of the first miss of the current streak (0: none)
	ProbesSent      int64
	ProbeAcks       int64
	FalseSuspicions int64 // probe rounds that reached the miss limit on a live node

	// rec, when set, records wire-level boundaries (KMsgSend at enqueue,
	// KMsgDeliver after destination processing) into the flight
	// recorder; wireSeq is the network-global message event counter
	// stamped into Event.Seq. Recording charges no virtual time, so the
	// simulated event stream is identical with or without it.
	rec     *obs.Recorder
	wireSeq int64
}

// SetDropEveryNth makes the network drop every n-th packet's first
// transmission (deterministic transient errors). Pass 0 to disable.
func (n *Network) SetDropEveryNth(nth int) { n.dropNth = nth }

// DropEveryNth returns the configured deterministic drop period (0 =
// lossless). The drop counter is network-global, so a nonzero setting
// forces serial execution.
func (n *Network) DropEveryNth() int { return n.dropNth }

// SetFlightRecorder attaches rec as the wire-boundary observer: every
// message accepted into a live sender's post queue records KMsgSend at
// the sender, and every message fully processed at a live destination
// records KMsgDeliver there. Pass nil to detach. These are exactly the
// protocol-step boundaries a fail-stop can land on: a node killed at its
// KMsgSend loses the queued message (undrained messages die with the
// NIC), one killed at a KMsgDeliver dies just after the message's
// effects were applied.
func (n *Network) SetFlightRecorder(rec *obs.Recorder) { n.rec = rec }

// observeWire records one wire boundary at node. The sink runs inside
// the record call, so an attached failure injector may kill node here.
func (n *Network) observeWire(kind obs.Kind, node int) {
	if n.rec == nil {
		return
	}
	n.wireSeq++
	n.rec.Record(obs.Event{Kind: kind, Node: int32(node), Thread: -1, Seq: n.wireSeq})
}

// ConfirmDead feeds an out-of-band failure confirmation (a sender's
// retransmission give-up surfaced through a fence error) into the
// probe-mode membership state, so later DetectRounds return the verdict
// immediately instead of re-running probe rounds against a peer the
// communication layer already proved dead. Ground truth still vetoes:
// a live node is never confirmed. No-op in oracle mode (the lookup is
// free there anyway).
func (n *Network) ConfirmDead(i int) {
	if n.cfg.Detection == model.DetectProbe && n.eps[i].dead {
		n.confirmedDead[i] = true
	}
}

// New builds a network with cfg.Nodes endpoints.
func New(eng *sim.Engine, cfg *model.Config) *Network {
	n := &Network{eng: eng, cfg: cfg}
	n.eps = make([]*Endpoint, cfg.Nodes)
	for i := range n.eps {
		ep := &Endpoint{id: i, net: n, ln: eng.Lane(i), sem: sim.NewSemaphore(cfg.PostQueueDepth)}
		ep.drainFn = ep.drainNext
		n.eps[i] = ep
	}
	if cfg.Chaos.Enabled {
		n.chaosRng = rand.New(rand.NewSource(cfg.Chaos.Seed))
	}
	n.missCount = make([]int, cfg.Nodes)
	n.confirmedDead = make([]bool, cfg.Nodes)
	n.suspectNs = make([]int64, cfg.Nodes)
	return n
}

// Endpoint returns node i's interface.
func (n *Network) Endpoint(i int) *Endpoint { return n.eps[i] }

// Totals returns the sum of every endpoint's traffic counters.
func (n *Network) Totals() Stats {
	var sum Stats
	for _, ep := range n.eps {
		sum.MsgsSent += ep.stats.MsgsSent
		sum.BytesSent += ep.stats.BytesSent
		sum.MsgsReceived += ep.stats.MsgsReceived
		sum.PostStallsNs += ep.stats.PostStallsNs
	}
	return sum
}

// Alive reports whether node i's endpoint is still up. This is the oracle a
// waiting process consults after a heartbeat timeout; in the real system
// the equivalent information comes from the communication layer's
// retransmission give-up.
func (n *Network) Alive(i int) bool { return !n.eps[i].dead }

// Kill fails node i fail-stop: its undrained messages are dropped, nothing
// further is accepted from or delivered to it. Messages already on the
// wire still arrive.
func (n *Network) Kill(i int) {
	ep := n.eps[i]
	if ep.dead {
		return
	}
	ep.dead = true
	ep.queue = nil
	ep.qhead = 0
	ep.draining = false
}

// ID returns the endpoint's node id.
func (ep *Endpoint) ID() int { return ep.id }

// SetHandler installs the message handler. Must be set before traffic
// arrives.
func (ep *Endpoint) SetHandler(h Handler) { ep.handler = h }

// Stats returns a snapshot of the endpoint's traffic counters.
func (ep *Endpoint) Stats() Stats { return ep.stats }

// Post sends payload asynchronously to dst (a remote deposit). The calling
// process blocks only if the post queue is full; delivery completion is
// observed via Fence. size is the payload's modeled size; the header is
// added here.
func (ep *Endpoint) Post(p *sim.Proc, dst int, size int, payload any) {
	ep.acquireSlot(p)
	ep.enqueue(outMsg{dst: dst, size: size + MsgHeaderBytes, payload: payload})
}

// PostSystem sends payload asynchronously without blocking on the post
// queue's depth limit. It is for NI-generated traffic (barrier release
// broadcasts, grants forwarded by handlers) that in the real system is
// emitted from interrupt/NI context rather than by an application
// processor. Callable from engine context.
func (ep *Endpoint) PostSystem(dst int, size int, payload any) {
	ep.enqueue(outMsg{dst: dst, size: size + MsgHeaderBytes, payload: payload, system: true})
}

// Request sends payload to dst and blocks until the handler there replies
// (a remote fetch / RPC). While waiting it heartbeats: after each
// HeartbeatTimeoutNs without a reply it checks liveness (an oracle lookup
// or a real probe round, per Config.Detection) and returns ErrNodeDead
// once dst's failure is confirmed.
func (ep *Endpoint) Request(p *sim.Proc, dst int, size int, payload any) (any, error) {
	return ep.RequestAbort(p, dst, size, payload, nil)
}

// ErrAborted is returned by RequestAbort when the abort predicate became
// true before a reply arrived.
var ErrAborted = errors.New("vmmc: request aborted")

// RequestAbort behaves like Request but additionally evaluates abort at
// every heartbeat; if it returns true the wait is abandoned with
// ErrAborted (a late reply is discarded). Used by protocol waits that must
// yield to failure recovery even when the peer itself is alive.
func (ep *Endpoint) RequestAbort(p *sim.Proc, dst int, size int, payload any, abort func() bool) (any, error) {
	pc := ep.getCall()
	ep.acquireSlot(p)
	ep.enqueue(outMsg{dst: dst, size: size + MsgHeaderBytes, payload: payload, call: pc, spare: ep.takeEvt()})
	for {
		v, err, ok := p.AwaitTimeout(&pc.fut, ep.net.cfg.HeartbeatTimeoutNs)
		if ok {
			if err == nil {
				// Resolved by the reply, not failed by a dead destination.
				ep.callFree = append(ep.callFree, pc)
			}
			return v, err
		}
		if !ep.DetectRound(p, dst) {
			return nil, &DeadError{Node: dst, Op: "request"}
		}
		if abort != nil && abort() {
			return nil, ErrAborted
		}
	}
}

// Fence blocks until every message this endpoint posted so far has been
// delivered and acknowledged, and returns the joined errors among them —
// one per failed destination, each wrapping ErrNodeDead and naming the
// node, so multi-failure recovery learns every dead peer from a single
// fence. Errors are consumed by the fence that observes them.
func (ep *Endpoint) Fence(p *sim.Proc) error {
	for ep.inFlight > 0 {
		ep.fenceGate.Wait(p)
	}
	if len(ep.sendErrs) > 0 {
		err := errors.Join(ep.sendErrs...)
		ep.sendErrs = nil
		ep.errDst = nil
		return err
	}
	return nil
}

// InFlight returns the number of unacknowledged posted messages.
func (ep *Endpoint) InFlight() int { return ep.inFlight }

func (ep *Endpoint) acquireSlot(p *sim.Proc) {
	if ep.sem.Available() > 0 {
		ep.sem.Acquire(p)
		return
	}
	t0 := p.Now()
	ep.sem.Acquire(p)
	ep.stats.PostStallsNs += p.Now() - t0
}

// enqueue adds a message to the post queue and starts the NIC drain if
// idle. Runs in process or engine context.
func (ep *Endpoint) enqueue(m outMsg) {
	if ep.dead {
		if !m.system {
			ep.sem.Release()
		}
		return
	}
	if !m.probe {
		// Probes pay every NIC and wire cost but are not fenced: a fence
		// must not surface a dead peer the fencing thread never posted to.
		ep.inFlight++
	}
	ep.queue = append(ep.queue, m)
	ep.stats.MsgsSent++
	ep.stats.BytesSent += int64(m.size)
	if !ep.draining {
		ep.draining = true
		ep.ln.At(0, ep.drainFn)
	}
	// Boundary: the message is queued but not yet drained. A kill fired
	// by the observer lands after the accounting above and wipes the
	// queue — the message is lost exactly as a real post-then-crash
	// loses it.
	ep.net.observeWire(obs.KMsgSend, ep.id)
}

// drainNext models the NIC taking the head message off the post queue,
// DMAing it onto the wire, and scheduling its delivery.
func (ep *Endpoint) drainNext() {
	if ep.dead || ep.qhead >= len(ep.queue) {
		ep.draining = false
		return
	}
	m := ep.queue[ep.qhead]
	ep.queue[ep.qhead] = outMsg{} // release the payload reference
	ep.qhead++
	if ep.qhead == len(ep.queue) {
		ep.queue = ep.queue[:0]
		ep.qhead = 0
	}
	cfg := ep.net.cfg
	overhead := cfg.NICDrainOverheadNs
	bw := cfg.BandwidthNsPerByte
	if ch := &cfg.Chaos; ch.Enabled {
		if ch.DegradeActive(ep.ln.Now()) {
			bw *= ch.DegradeFactor
		}
		if ch.Gray(ep.id) {
			overhead = int64(float64(overhead) * ch.GrayFactor)
			bw *= ch.GrayFactor
		}
	}
	occupancy := overhead + int64(float64(m.size)*bw)
	ep.ln.At(occupancy, ep.getEvt(evtTransmit, ep, m).run)
}

// transmit puts a message on the wire. A transient error (deterministic
// drop of the first transmission) is masked by the NIC: the missing
// acknowledgement triggers a retransmission one timeout later, and the
// NIC head-of-line blocks until the message gets through, preserving the
// per-sender FIFO order VMMC guarantees ("transient network error failures
// are resolved by VMMC").
func (ep *Endpoint) transmit(m outMsg) {
	n := ep.net
	if n.dropNth > 0 && !m.retx {
		n.sendSeq++
		if n.sendSeq%n.dropNth == 0 {
			// Lost on the wire; resend after the retransmission timeout.
			// Later messages wait: FIFO is part of the contract. The
			// resend is marked retx so it neither advances nor re-enters
			// the first-transmission drop counter — otherwise dropNth=1
			// would retransmit the same packet forever, and small n would
			// re-drop a packet that "drops every n-th FIRST transmission"
			// promises to deliver on its second attempt.
			ep.retransmit(m)
			return
		}
	}
	now := ep.ln.Now()
	if n.cfg.Chaos.BurstActive(now, ep.id, m.dst) {
		// Burst loss drops retransmissions too; the window is finite, so
		// the head-of-line blocking it causes ends when the burst passes
		// and upper layers only ever observe added latency.
		ep.retransmit(m)
		return
	}
	delay := n.cfg.LinkLatencyNs
	if n.chaosRng != nil && n.cfg.Chaos.JitterNs > 0 {
		delay += n.chaosRng.Int63n(n.cfg.Chaos.JitterNs)
	}
	arrive := now + delay
	if arrive < ep.lastArrivalNs {
		arrive = ep.lastArrivalNs // jitter must not reorder a sender's messages
	}
	ep.lastArrivalNs = arrive
	dev := m.spare
	if m.replyTo != nil {
		// The reply's delivery fires at the requester, on the event the
		// requester sent along for it.
		m.spare = nil
	} else {
		dev = ep.takeEvt()
	}
	dev.kind, dev.ep, dev.m = evtDeliver, ep, m
	if m.replyTo != nil && !m.probe {
		// A reply resolves the requester's future at the destination (the
		// destination IS the requester) but completes the sender's fence
		// accounting at the sender. Split the two across an event pair so
		// each side runs in its own lane: the delivery posts cross-lane,
		// the outcome fires in this lane at the same instant with the
		// next seq — consecutive, so the serial event stream is unchanged
		// from running both effects inside deliver.
		out := ep.getEvt(evtOutcome, ep, m)
		dev.peer = out
		ep.ln.Post(n.eps[m.dst].ln, arrive-now, dev.run)
		ep.ln.At(arrive-now, out.run)
	} else {
		ep.ln.Post(n.eps[m.dst].ln, arrive-now, dev.run)
	}
	ep.drainNext()
}

// retransmit accounts a lost transmission and puts the message back on the
// wire one retransmission timeout later.
func (ep *Endpoint) retransmit(m outMsg) {
	n := ep.net
	n.Retransmits++
	n.RetxBytes += int64(m.size)
	m.retx = true
	ep.ln.At(n.cfg.RetxTimeout(m.size), ep.getEvt(evtRetx, ep, m).run)
}

// deliver lands a message at its destination. It runs in the destination's
// lane; sender-side effects (fence accounting) travel back either as an
// acknowledgement event one latency later or, for replies, via the
// sender-lane evtOutcome peer scheduled alongside this delivery.
func (n *Network) deliver(src *Endpoint, m outMsg, peer *wireEvt) {
	dst := n.eps[m.dst]
	if dst.dead {
		if m.probe {
			// No NIC left to ack: the prober's round times out and counts
			// a miss.
			return
		}
		if m.replyTo != nil {
			// The requester died with its own reply on the wire; the
			// sender-side outcome (peer) sees delivered == false and
			// surfaces the failure there. Nothing to do at this end.
			return
		}
		fail := func() {
			if m.call != nil {
				m.call.fut.Fail(&DeadError{Node: m.dst, Op: "request"})
			}
			src.completePost(m.dst, ErrNodeDead)
		}
		if n.cfg.Detection == model.DetectProbe {
			// Honest mode: the sender's NIC only learns the peer is gone
			// by exhausting retransmission attempts, not instantaneously.
			n.eng.At(retxGiveUpTries*n.cfg.RetxTimeout(m.size), fail)
		} else {
			fail()
		}
		return
	}
	dst.stats.MsgsReceived++
	// Boundary: recorded (deferred) after the payload's effects are fully
	// applied at the destination — a kill fired by the observer models a
	// node dying just after processing this message, with any ack or
	// reply it generated already committed to the wire. Recording before
	// processing would create a window that cannot exist in the real
	// system: the NIC that acks a deposit is the NIC that applies it.
	defer n.observeWire(obs.KMsgDeliver, m.dst)
	switch pl := m.payload.(type) {
	case probeMsg:
		// The destination NIC acks probes itself; no destination CPU is
		// involved, but the ack occupies its post queue and the wire.
		dst.enqueue(outMsg{dst: src.id, size: probeSizeBytes, payload: probeAck{seq: pl.seq}, system: true, probe: true})
		return
	case probeAck:
		if fut, ok := dst.probeWait[pl.seq]; ok {
			delete(dst.probeWait, pl.seq)
			n.ProbeAcks++
			fut.Resolve(nil)
		}
		return
	}
	if m.replyTo != nil {
		// Reply to an outstanding Request: resolve the caller's future.
		// The destination is the requester, so the resolve is lane-local;
		// the sender's fence completion runs in the evtOutcome peer.
		m.replyTo.fut.Resolve(m.payload)
		if peer != nil && !n.eng.IsParallel() {
			// Tell the outcome the reply landed, so a kill between this
			// delivery and the outcome still completes the fence cleanly.
			// Under Parallel nodes never die and the write would be a
			// cross-lane race: the outcome assumes delivery there.
			peer.delivered = true
		}
		return
	}
	if dst.handler == nil {
		panic(fmt.Sprintf("vmmc: node %d has no handler", m.dst))
	}
	d := dst.getDelivery(src.id, m)
	dst.handler(d)
	if d.call == nil {
		// One-way, or the handler replied inline: the envelope is dead.
		dst.putDelivery(d)
	} else {
		// The handler stored it for a deferred Reply; Reply recycles it.
		d.deferred = true
	}
	// Acknowledgement returns one latency later, completing the post in
	// the sender's lane.
	dst.ln.Post(src.ln, n.cfg.LinkLatencyNs, dst.getEvt(evtAck, src, outMsg{dst: m.dst}).run)
}

// replyOutcome fires in the reply sender's lane at the reply's arrival
// instant and settles the sender-side fence accounting that deliver used
// to do inline. delivered is set by the paired delivery (serial mode): if
// the requester died before the reply landed, the sender's post failed —
// surface it with the same timing the direct-path code used.
func (ep *Endpoint) replyOutcome(m outMsg, delivered bool) {
	n := ep.net
	if delivered || n.eng.IsParallel() {
		ep.completePost(m.dst, nil)
		return
	}
	if n.cfg.Detection == model.DetectProbe {
		n.eng.At(retxGiveUpTries*n.cfg.RetxTimeout(m.size), func() {
			ep.completePost(m.dst, ErrNodeDead)
		})
		return
	}
	ep.completePost(m.dst, ErrNodeDead)
}

func (ep *Endpoint) completePost(dst int, err error) {
	ep.inFlight--
	if err != nil && !ep.errDst[dst] {
		if ep.errDst == nil {
			ep.errDst = make(map[int]bool)
		}
		ep.errDst[dst] = true
		// A structured error per destination: Fence joins these, and
		// DeadNodes recovers the full set of failed peers from the join.
		ep.sendErrs = append(ep.sendErrs, &DeadError{Node: dst, Op: "post"})
	}
	if ep.inFlight == 0 {
		ep.fenceGate.Broadcast()
	}
}
