package svm

import (
	"ftsvm/internal/checkpoint"
	"ftsvm/internal/mem"
	"ftsvm/internal/proto"
)

// Wire message payloads. Sizes on the wire are modeled by each message's
// wireBytes; the vmmc layer adds a fixed header.

const vecBytes = 4 // modeled bytes per vector element

func vecWire(n int) int { return 4 + vecBytes*n }

// diffMsg carries one page diff to a home node. Phase selects the target
// copy in the extended protocol: 1 = tentative at the secondary home,
// 2 = committed at the primary home. Base-protocol diffs use phase 0 and
// are applied to the home's working copy.
type diffMsg struct {
	Page     int
	Src      int
	Interval int32
	Phase    int
	Diff     *mem.Diff
	// Undo carries the pre-image of the modified words (from the twin) on
	// phase-1 diffs: if the sender dies after this diff lands but before
	// its timestamp save, recovery rolls the tentative copy back by
	// applying exactly this pre-image — a whole-page restore from the
	// committed copy would collaterally wipe other releasers' in-flight
	// phase-1 updates (and for pages primary-homed at the sender the
	// committed copy dies with it).
	Undo *mem.Diff
}

func (m *diffMsg) wireBytes() int {
	n := m.Diff.WireBytes() + 12
	if m.Undo != nil {
		n += m.Undo.WireBytes()
	}
	return n
}

// diffBatch aggregates all of a release's diffs bound for one home into a
// single message — the paper's §6 future-work optimization ("decreasing
// contention at the network interface by sending fewer and larger
// messages"). Enabled by Options.AggregateDiffs.
type diffBatch struct {
	Items []*diffMsg
}

func (m *diffBatch) wireBytes() int {
	n := 8
	for _, it := range m.Items {
		n += it.wireBytes()
	}
	return n
}

// fetchReq asks a home for a page copy at or beyond version Need. Reply is
// the requester's envelope for the answer; it travels with the request but
// is not on the modeled wire (on VMMC it is the receive buffer the
// requester exported).
type fetchReq struct {
	Page  int
	Need  proto.VectorTime
	Reply *fetchReply
}

func (m *fetchReq) wireBytes() int { return 8 + vecWire(len(m.Need)) }

// fetchReply returns the page contents and the version they carry. The
// requester owns it, as it owns its pendingCall: Data is a page buffer from
// the requester's pool and Ver is N wide, the home copies into both in
// place (fill) and replies with the envelope itself. The requester reuses
// a request and its envelope only after RequestAbort returned the reply;
// one abandoned by an error may still sit in a home's waiter list, and
// recovery re-serves those, so it is left to the collector.
type fetchReply struct {
	Data []byte
	Ver  proto.VectorTime
}

// fill copies a home copy and its version into the request's envelope and
// returns the envelope.
func (m *fetchReq) fill(buf []byte, ver proto.VectorTime) *fetchReply {
	rep := m.Reply
	copy(rep.Data, buf)
	copy(rep.Ver, ver)
	return rep
}

func (m *fetchReply) wireBytes() int { return 8 + len(m.Data) + vecWire(len(m.Ver)) }

// updatesReq asks a node for its update lists for intervals [From, To].
// Reply is the requester's envelope for the answer, embedded so the round
// trip builds nothing; like fetchReq.Reply it is not on the modeled wire.
type updatesReq struct {
	From, To int32
	Reply    updatesReply
}

func (m *updatesReq) wireBytes() int { return 16 }

// updatesReply returns the requested update lists. The home sets Lists to
// a capped window into its interval log (intervalRange) and replies with
// the request's own envelope. The requesting thread reuses the request
// only after RequestAbort returned the envelope; one abandoned by an error
// may still be answered late, so it is dropped, as a fetch request is.
type updatesReply struct {
	Lists []proto.UpdateList
}

func updatesWire(lists []proto.UpdateList) int {
	n := 8
	for i := range lists {
		n += lists[i].WireBytes()
	}
	return n
}

// saveTSMsg is the extended protocol's end-of-phase-1 save: the releaser's
// new vector time and the update list of the interval just propagated,
// replicated at the backup node so recovery can arbitrate roll-forward vs
// roll-back and re-serve the dead node's write notices. TS is the node's
// immutable vector-time snapshot (vtSnapshot), shared by the deposit's k-1
// copies and kept as it is by each backup (storeSavedTS).
type saveTSMsg struct {
	Node int
	TS   proto.VectorTime
	List proto.UpdateList
	// Stash replicates the diffs of pages whose secondary home is the
	// releaser itself (their phase-1 application was local, so without the
	// stash those updates would exist on no other node until phase 2 —
	// a roll-forward after the releaser's death could not rebuild them).
	Stash []*mem.Diff
	// The releasing thread's point-B checkpoint rides in the same deposit:
	// the timestamp (which decides roll-forward vs roll-back for this
	// interval) and the thread state that matches that decision must land
	// atomically, or a failure between them would replay the interval
	// twice (forward + stale state) or lose it (backward + fresh state).
	CkptThread int
	CkptHome   int
	Snap       checkpoint.Snapshot
}

func (m *saveTSMsg) wireBytes() int {
	n := 8 + vecWire(len(m.TS)) + m.List.WireBytes()
	for _, d := range m.Stash {
		n += d.WireBytes()
	}
	n += 16 + len(m.Snap.Blob) + vecWire(len(m.Snap.VT))
	return n
}

// ckptMsg deposits one thread checkpoint at the backup node.
type ckptMsg struct {
	ThreadID int
	HomeNode int
	Snap     checkpoint.Snapshot
}

func (m *ckptMsg) wireBytes() int { return 16 + vecWire(len(m.Snap.VT)) + len(m.Snap.Blob) }

// Lock algorithm messages (central polling lock, §4.3).

// lockSet writes a node's element in the lock vector at a lock home.
type lockSet struct {
	Lock int
	Node int
}

func (m *lockSet) wireBytes() int { return 12 } // lock id + node + op tag

// lockClear resets a node's element (failed acquire attempt).
type lockClear struct {
	Lock int
	Node int
}

func (m *lockClear) wireBytes() int { return 12 }

// lockRead fetches the whole lock vector plus the stored release timestamp
// from the lock's primary home. Reply is the (node, lock) envelope for the
// answer (see lockReadReply); it is not on the modeled wire.
type lockRead struct {
	Lock  int
	Reply *lockReadReply
}

func (m *lockRead) wireBytes() int { return 8 }

// lockReadReply is modelled as the set elements of the lock vector plus
// the stored release timestamp, and sized as such. The object holds what
// the acquirer reads of them: how many elements are set, whether the
// reader's is the only one, and the timestamp in that case alone.
//
// It is the acquiring node's envelope for lock l, owned by ownedLock.read:
// VT is N wide, and the home (lockHome.readReply) fills the envelope in
// place, as the local path does when the node is the primary home itself.
// An acquire that errors replaces the whole request, since the home may
// still answer the old one, so a fill can only reach the envelope of a
// read still in progress or of the one that returned. The acquirer keeps
// the granted VT through fetchUpdates without copying it: only a thread
// acquiring l on this node sends the next read, and l is held by then
// (ownedLock.busy, then held, keep every local thread out of the remote
// acquire until the holder's release).
type lockReadReply struct {
	Count int              // elements set in the lock vector
	Sole  bool             // the reader's element is the only one set
	VT    proto.VectorTime // stored release timestamp; meaningful only if Sole
	vtLen int              // length of the stored timestamp on the wire
}

func (m *lockReadReply) wireBytes() int { return 8 + 4*m.Count + vecWire(m.vtLen) }

// lockRelease clears the releaser's element and stores its vector time, as
// one atomic deposit.
type lockRelease struct {
	Lock int
	Node int
	VT   proto.VectorTime
}

func (m *lockRelease) wireBytes() int { return 8 + vecWire(len(m.VT)) }

// nicTestSet is the NIC-assisted lock's atomic acquire attempt (§6 future
// work): the home's network interface tests and sets the owner word in one
// operation and replies with the grant decision and the stored release
// timestamp.
type nicTestSet struct {
	Lock int
	Node int
}

func (m *nicTestSet) wireBytes() int { return 12 }

type nicTestSetReply struct {
	Granted bool
	VT      proto.VectorTime
}

func (m *nicTestSetReply) wireBytes() int { return 8 + vecWire(len(m.VT)) }

// Queue lock messages (GeNIMA's original algorithm, kept as an ablation).

// qlAcquire asks the lock's home to enqueue the requester.
type qlAcquire struct {
	Lock      int
	Requester int
}

func (m *qlAcquire) wireBytes() int { return 12 }

// qlForward is sent by the home to the current tail: pass the lock to
// Requester when you release.
type qlForward struct {
	Lock      int
	Requester int
}

func (m *qlForward) wireBytes() int { return 12 }

// qlGrant hands the lock (and the release timestamp) to the next holder.
type qlGrant struct {
	Lock int
	VT   proto.VectorTime
}

func (m *qlGrant) wireBytes() int { return 8 + vecWire(len(m.VT)) }

// Barrier messages.

// barArrive announces a node's arrival at barrier episode Epoch, carrying
// its vector time and the update lists other nodes may not have seen.
type barArrive struct {
	Epoch int
	Node  int
	VT    proto.VectorTime
	Lists []proto.UpdateList
}

func (m *barArrive) wireBytes() int { return 16 + vecWire(len(m.VT)) + updatesWire(m.Lists) }

// barRelease is the master's broadcast completing a barrier episode.
type barRelease struct {
	Epoch int
	VT    proto.VectorTime
	Lists []proto.UpdateList
}

func (m *barRelease) wireBytes() int { return 16 + vecWire(len(m.VT)) + updatesWire(m.Lists) }

// Recovery messages.

// savedReq asks a backup node for everything it holds about a dead node:
// the last saved timestamp, the replicated update lists, and the thread
// checkpoints.
type savedReq struct {
	Dead int
}

func (m *savedReq) wireBytes() int { return 8 }

// savedReply returns the backup's replicated state for the dead node.
type savedReply struct {
	Have  bool
	TS    proto.VectorTime
	Lists []proto.UpdateList
}

func (m *savedReply) wireBytes() int { return 8 + vecWire(len(m.TS)) + updatesWire(m.Lists) }

// lockRebuild carries a lock's reconstructed state to its new homes
// during recovery (installed by the coordinator via direct call; the
// transfer cost is charged in bulk by rebuildLocks).
type lockRebuild struct {
	Lock    int
	Holders []int
	VT      proto.VectorTime
}
