// Package obs is the simulator's observability layer: a per-node
// flight recorder of structured protocol events, a metrics registry
// unifying the counters scattered across the protocol and network
// layers, and the event/kind vocabulary shared by both.
//
// The design constraint is the same one PR 1 imposed on diff buffers:
// zero allocation in steady state. Events are fixed-size value structs
// recorded into preallocated rings, so an enabled recorder costs two
// branches and a struct copy per event and an idle one costs nothing.
// Recording never charges virtual time, so enabling the recorder cannot
// perturb the simulation's deterministic event stream.
package obs

import (
	"fmt"
	"io"
)

// Kind identifies a protocol event. String() returns the stable dotted
// names that flags, boundary IDs and harness.Config.KillKind use;
// KindByName is its inverse.
type Kind uint8

const (
	KNone Kind = iota

	// Release pipeline milestones (§4.2, Fig. 2).
	KReleaseCommit
	KReleasePhase1
	KReleaseSaveTS
	KReleaseCkptB
	KReleasePhase2
	KReleaseDone

	// Checkpointing.
	KCkptA

	// Barrier.
	KBarrierArrive

	// Lock protocol.
	KLockSet
	KLockClear
	KLockGrant
	KLockHeld
	KLockRelease

	// Barrier master's release broadcast: the merged vector time and
	// write notices are about to be sent to every member. A failure
	// exactly here leaves some members released and others waiting.
	KBarrierRelease

	// Wire-level boundaries, recorded only when wire tracing is enabled
	// (svm.Cluster.EnableWireTrace): KMsgSend as a message enters the
	// sender's post queue (a node killed here loses the queued message —
	// the partial-propagation window), KMsgDeliver after a message is
	// fully processed at a live destination (a node killed here dies
	// with the message's effects applied). Seq is a network-global
	// message counter.
	KMsgSend
	KMsgDeliver

	// Failure and recovery (§4.5).
	KKill
	KRecoveryStart
	KRecoveryReconcile
	KRecoveryRehome
	KRecoveryLocks
	KRecoverySync
	KRecoveryRestore
	KRecoveryMigrate
	KRecoveryDone

	numKinds
)

var kindNames = [numKinds]string{
	KNone:              "none",
	KReleaseCommit:     "release.commit",
	KReleasePhase1:     "release.phase1",
	KReleaseSaveTS:     "release.savets",
	KReleaseCkptB:      "release.ckptB",
	KReleasePhase2:     "release.phase2",
	KReleaseDone:       "release.done",
	KCkptA:             "ckpt.A",
	KBarrierArrive:     "barrier.arrive",
	KLockSet:           "lock.set",
	KLockClear:         "lock.clear",
	KLockGrant:         "lock.grant",
	KLockHeld:          "lock.held",
	KLockRelease:       "lock.release",
	KBarrierRelease:    "barrier.release",
	KMsgSend:           "msg.send",
	KMsgDeliver:        "msg.deliver",
	KKill:              "kill",
	KRecoveryStart:     "recovery.start",
	KRecoveryReconcile: "recovery.reconcile",
	KRecoveryRehome:    "recovery.rehome",
	KRecoveryLocks:     "recovery.locks",
	KRecoverySync:      "recovery.sync",
	KRecoveryRestore:   "recovery.restore",
	KRecoveryMigrate:   "recovery.migrate",
	KRecoveryDone:      "recovery.done",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindByName resolves a dotted kind name ("release.phase1") back to its
// Kind — the inverse of String, used to parse boundary IDs.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name && Kind(k) != KNone {
			return Kind(k), true
		}
	}
	return KNone, false
}

// Kinds returns every defined kind except KNone, in declaration order.
func Kinds() []Kind {
	out := make([]Kind, 0, int(numKinds)-1)
	for k := KNone + 1; k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// Event is one recorded protocol event. It is a fixed-size value so a
// ring of them is a single allocation and recording is a struct copy.
type Event struct {
	TimeNs int64 // virtual time of the event
	Seq    int64 // kind-specific sequence (release count, lock id, epoch)
	Node   int32
	Thread int32 // -1 for node-level (NI/handler) events
	Kind   Kind
}

func (e Event) String() string {
	return fmt.Sprintf("%10.3fms %-18s node=%d thread=%d seq=%d",
		float64(e.TimeNs)/1e6, e.Kind.String(), e.Node, e.Thread, e.Seq)
}

// Ring is a fixed-capacity event ring. Appends overwrite the oldest
// entry once full and never allocate.
type Ring struct {
	buf []Event
	n   uint64 // total appended
}

// NewRing returns a ring holding the last capacity events (min 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Append records e, overwriting the oldest entry when full.
func (r *Ring) Append(e Event) {
	r.buf[r.n%uint64(len(r.buf))] = e
	r.n++
}

// Total returns the number of events ever appended.
func (r *Ring) Total() uint64 { return r.n }

// Last returns up to k retained events, oldest first. The returned
// slice is freshly allocated (Last is a debugging endpoint, not a hot
// path).
func (r *Ring) Last(k int) []Event {
	held := r.n
	if held > uint64(len(r.buf)) {
		held = uint64(len(r.buf))
	}
	if uint64(k) > held {
		k = int(held)
	}
	out := make([]Event, 0, k)
	for i := r.n - uint64(k); i < r.n; i++ {
		out = append(out, r.buf[i%uint64(len(r.buf))])
	}
	return out
}

// Recorder is the per-node flight recorder: one ring per node plus an
// optional streaming sink (`svm run -events`). The clock stamps events with the
// engine's virtual time at record. A recorder built with no rings is
// sink only: it stamps each event and streams it, and keeps nothing.
type Recorder struct {
	rings []*Ring // nil when sink only
	clock func() int64
	sink  func(Event)
}

// NewRecorder builds a recorder for nodes nodes keeping the last
// perNode events of each; perNode 0 keeps no rings (sink only), for
// observers that act on the stream and never dump it. clock supplies
// virtual timestamps (may be nil; events then keep a zero TimeNs unless
// pre-stamped).
func NewRecorder(nodes, perNode int, clock func() int64) *Recorder {
	r := &Recorder{clock: clock}
	if perNode > 0 {
		r.rings = make([]*Ring, nodes)
		for i := range r.rings {
			r.rings[i] = NewRing(perNode)
		}
	}
	return r
}

// SetSink installs a streaming consumer invoked on every recorded
// event, after it lands in the ring. Pass nil to detach.
func (r *Recorder) SetSink(fn func(Event)) { r.sink = fn }

// Record stamps and stores one event. Zero-allocation: the event is
// copied by value into a preallocated ring.
func (r *Recorder) Record(e Event) {
	if e.TimeNs == 0 && r.clock != nil {
		e.TimeNs = r.clock()
	}
	if int(e.Node) >= 0 && int(e.Node) < len(r.rings) {
		r.rings[e.Node].Append(e)
	}
	if r.sink != nil {
		r.sink(e)
	}
}

// Node returns node i's ring, or nil when the recorder is sink only.
func (r *Recorder) Node(i int) *Ring {
	if r.rings == nil {
		return nil
	}
	return r.rings[i]
}

// Dump writes each node's last lastN retained events to w — the
// post-mortem view `svm fi -boundary` and `svm chaos` print on a failure.
func (r *Recorder) Dump(w io.Writer, lastN int) {
	if r.rings == nil {
		fmt.Fprintln(w, "flight recorder kept no rings (sink only)")
		return
	}
	for i, ring := range r.rings {
		evs := ring.Last(lastN)
		fmt.Fprintf(w, "node %d: last %d of %d events\n", i, len(evs), ring.Total())
		for _, e := range evs {
			fmt.Fprintf(w, "  %s\n", e.String())
		}
	}
}
