package svm

import (
	"fmt"
	"math"
	"math/bits"

	"ftsvm/internal/checkpoint"
	"ftsvm/internal/mem"
	"ftsvm/internal/model"
	"ftsvm/internal/obs"
	"ftsvm/internal/proto"
	"ftsvm/internal/sim"
	"ftsvm/internal/vmmc"
)

// Mode selects the protocol variant.
type Mode int

const (
	// ModeBase is the original failure-free GeNIMA protocol: one home per
	// page, diffs only for non-home pages, no checkpointing.
	ModeBase Mode = iota
	// ModeFT is the extended protocol: two homes per page with
	// tentative/committed copies, two-phase diff propagation, page
	// locking, replicated locks, and thread checkpointing.
	ModeFT
)

func (m Mode) String() string {
	if m == ModeBase {
		return "base"
	}
	return "extended"
}

// LockAlgo selects the lock synchronization algorithm.
type LockAlgo int

const (
	// LockPolling is the stateless centralized polling lock the paper
	// adopts (§4.3): a per-lock vector at a home node, written and read
	// with remote operations. In ModeFT the vector and the release
	// timestamp are replicated at a secondary home.
	LockPolling LockAlgo = iota
	// LockQueue is GeNIMA's distributed queuing lock, kept as the
	// ablation baseline the paper compares against. It has no
	// fault-tolerant variant (that design was abandoned for complexity).
	LockQueue
	// LockNIC implements the paper's §6 future-work suggestion: the lock
	// home's network interface performs an atomic test-and-set, so an
	// uncontended acquire is a single round trip instead of the polling
	// lock's write+read+clear sequence. It remains stateless at the home
	// (one owner word + the release timestamp) and therefore keeps the
	// polling lock's trivial recovery; ModeFT replicates it the same way.
	LockNIC
)

func (a LockAlgo) String() string {
	switch a {
	case LockPolling:
		return "polling"
	case LockQueue:
		return "queue"
	default:
		return "nic"
	}
}

// TraceEvent is a protocol milestone handed to a Tracer: the flight
// recorder's obs.Event with its kind as a string. It and Tracer are kept
// only for the bench ledger's kill cells, which build their clusters
// outside internal/harness; every other failure injection kills from
// the recorder's sink (EnableFlightRecorder, obs.Recorder.SetSink), and
// both go once the ledger does the same.
type TraceEvent struct {
	Kind   string // obs.Kind.String(): "release.phase1", "lock.grant", ...
	Node   int
	Thread int
	Seq    int64 // per-node release count, barrier epoch, or lock id
}

// Tracer receives trace events in simulation context. Implementations may
// call Cluster.KillNode from Event. Kept for the bench ledger only (see
// TraceEvent).
type Tracer interface {
	Event(e TraceEvent)
}

// Options configures a cluster run.
type Options struct {
	Config   model.Config
	Mode     Mode
	LockAlgo LockAlgo

	// Pages is the number of shared pages; the shared address space is
	// Pages*Config.PageSize bytes.
	Pages int
	// Locks is the number of application locks.
	Locks int
	// HomeAssign maps a page to its (primary) home node. Nil means
	// block-distributed: page p lives on node p*nodes/pages.
	HomeAssign func(page int) int
	// Body is the application thread body, run once per compute thread.
	Body func(t *Thread)
	// Tracer, if set, observes protocol milestones. Bench-only (see
	// TraceEvent); use the flight recorder's sink instead.
	Tracer Tracer
	// SerialReleases forces lock releases on one node to serialize, as the
	// paper's initial extended design does. ModeFT sets this implicitly.
	SerialReleases bool
	// AggregateDiffs batches all of a release's diffs bound for the same
	// home into one message (the paper's §6 suggestion for reducing
	// network-interface contention). Off by default to match the paper's
	// measured configuration.
	AggregateDiffs bool
	// UnsafeSinglePhase collapses the extended protocol's two diff
	// propagation phases into one: both home copies are updated
	// concurrently under a single fence. It quantifies what the two-phase
	// ordering costs — and deliberately forfeits its guarantee: a failure
	// mid-propagation can leave the two replicas of a page irreconcilable
	// (neither copy is known-complete). For ablation only.
	UnsafeSinglePhase bool
	// FullTwins disables dirty-chunk write tracking: write faults copy
	// the whole page into the twin and diff creation scans the whole
	// page, as in the original implementation. Protocol outputs (virtual
	// times, messages, diff contents) are identical either way — tracking
	// only changes how the simulator computes them — so this is an
	// ablation/cross-check knob for host-side performance.
	FullTwins bool
	// Workers selects the execution engine: 0 or 1 runs the classic
	// serial engine; > 1 runs the conservative parallel engine with one
	// lane per node, Workers host goroutines, and lookahead
	// Config.LinkLatencyNs. The parallel engine commits effects in the
	// serial engine's exact event order, so every virtual-time metric,
	// RNG draw, and memory image is bit-identical to Workers = 1 — only
	// host wall-clock changes. Features that are inherently serial
	// (tracers, flight recording, auditing, commit sinks, chaos,
	// probe-mode detection, deterministic drops, failure injection) fall
	// back to the serial engine; SerialFallbackReason reports why.
	Workers int
}

// Cluster is a running SVM cluster.
type Cluster struct {
	eng *sim.Engine
	cfg *model.Config
	opt *Options
	net *vmmc.Network

	nodes   []*node
	threads []*Thread

	pageHomes proto.Directory
	lockHomes proto.Directory
	// dirHashed records that the directories are consistent-hashed
	// (model.DirHashed): the recovery path then also charges the
	// home-delta broadcast that ships new overrides to the survivors
	// (a flat directory re-runs the same full scan everywhere and
	// needs no such message).
	dirHashed bool
	// rehomeWallNs accumulates host wall time spent inside directory
	// Rehome calls — the measured recovery-path directory cost that the
	// scaling bench reports (virtual time is charged separately).
	rehomeWallNs int64

	rec recoveryState

	sliceNs int64 // debt flush threshold

	// everKilled is set by the first KillNode. While false (every healthy
	// run), thread exits broadcast only their own node's barrier gate —
	// the cross-node wakeups exist solely so recovery barriers re-evaluate
	// when a thread that will never arrive finishes, and keeping them
	// node-local is what lets the parallel engine run exits lane-locally.
	everKilled bool
	// unrecovered counts nodes that are dead but not yet excluded, kept by
	// KillNode and exclude. While it is zero (every healthy run, and a
	// failure run outside its limbo windows) the oracle-mode liveness
	// sweep has nothing to find and is skipped.
	unrecovered int

	// fanoutOrder is the tree broadcast's membership order and fanoutIndex
	// each node's index in it (-1 once excluded), built by fanoutChildren
	// on first use and dropped by exclude, the one writer of node.excluded.
	fanoutOrder []int
	fanoutIndex []int

	// tracked enables dirty-chunk write tracking with lazy partial twins
	// (the default; see Options.FullTwins).
	tracked bool

	// pageShift/pageLow turn pageOf's div/mod into shift/mask when
	// PageSize is a power of two (pageShift == 0 means it is not).
	pageShift uint
	pageLow   int

	// trackWriters enables per-word last-writer tracking (extended
	// protocol with >1 thread/node): commitInterval defers a sibling's
	// mid-critical-section words to that sibling's own interval so a
	// replayed sibling never double-applies lock-protected writes.
	trackWriters bool

	// Observability (internal/obs), all nil/off by default so the
	// benchmark paths pay nothing: flight is the per-node event
	// recorder, aud the online invariant auditor, auditErr the first
	// violation it found (surfaced by Run).
	flight   *obs.Recorder
	aud      *auditor
	auditErr error

	// commitSink, when set, observes every committed interval (see
	// SetCommitSink). Nil by default: the commit path pays one branch.
	commitSink CommitSink

	vecs []vecArena // by node id, not in node: node keeps its size class

	// vtSnapHook, when set (tests only), sees every vector-time snapshot
	// vtSnapshot makes, once, when it is made.
	vtSnapHook func(proto.VectorTime)

	// parReason, set by Run, is why Workers > 1 fell back to the serial
	// engine ("" when parallel execution was enabled or never requested).
	parReason string

	// phase holds the virtual times of the first kill, recovery start
	// and recovery done, written where each happens (SuspectNs is left
	// to PhaseTimes). Always recorded, whether or not a tracer or
	// recorder is attached.
	phase PhaseTimes
}

// node is one SMP node: a set of threads sharing a page table and the
// node-level protocol state.
type node struct {
	id int
	cl *Cluster
	ep *vmmc.Endpoint
	pt *pageTable

	// vt is written only through advanceVT and mergeVT, which drop vtSnap,
	// the immutable copy vtSnapshot hands out, whenever vt changes.
	vt     proto.VectorTime
	vtSnap proto.VectorTime
	// vtLink is the per-destination delta-codec context: the last vector
	// shipped on each outgoing link (see wire.go). Lazily allocated, nil
	// until the first delta-costed send; always nil under VTFull.
	vtLink    []proto.VectorTime
	intervals []proto.UpdateList // own committed update lists, index = interval-1
	pageSlab  []int              // storage of the lists' Pages (listPages)
	dirty     []int              // pages written in the current interval
	commitSeq int64              // commitInterval pass counter (dirty-list dedup)

	// releaseBusy serializes release/commit critical sections on the node
	// (a recovery-interruptible mutex).
	releaseBusy bool
	releaseGate sim.Gate

	threads []*Thread
	busy    int
	// idleGate parks open-loop serving threads between requests
	// (Thread.IdleUntil); recovery broadcasts it so idle threads join the
	// recovery barrier promptly instead of sleeping through it.
	idleGate sim.Gate
	dead     bool // fail-stopped (ground truth, set at kill time)
	// excluded means a completed recovery removed this node from the
	// cluster: home maps, barrier membership, and backup rings no longer
	// reference it. Between dead and excluded, survivors still address the
	// node and discover the failure through timeouts and send errors.
	excluded bool

	// stats and ckptCount are this node's shard of the cluster counters.
	// Per-node shards keep every increment lane-local under the parallel
	// engine; sums commute, so aggregating at snapshot time (ProtoStats,
	// Metrics, CheckpointCount) is exact.
	stats     ProtoStats
	ckptCount int64

	// pageFree recycles page-size buffers (twins, working copies, fetch
	// payloads); see pagetable.go. maskFree recycles dirty-chunk masks.
	// Per-node for the same lane-locality reason: a buffer freed on the
	// node that last used it may migrate between node pools over its
	// lifetime, which is invisible to the protocol (contents are always
	// (re)initialized on get).
	pageFree [][]byte
	maskFree [][]uint64

	// Lock state: home-side entries for locks homed here, acquirer-side
	// node-level ownership.
	lockHomesState []*lockHome
	owned          map[int]*ownedLock
	qlWait         map[int]*sim.Future // queue lock: pending grants

	// Backup-node state: checkpoints and replicated protocol data for the
	// nodes this node backs up.
	ckpts      *checkpoint.Store
	savedTS    map[int]proto.VectorTime
	savedLists map[int][]proto.UpdateList
	savedStash map[int]*diffCopy // replicated self-secondary diffs
	ckptHome   map[int]int       // threadID -> original home node of backed-up threads

	// Barrier state (participant side).
	barEpoch         int           // last completed episode
	barCount         map[int64]int // per-episode local arrivals
	barSentEpoch     int64         // episode for which the node arrival was sent
	barReleasedEpoch int64         // episode for which the node release ran (survives recovery)
	barReleasedCount int           // arrival count covered by that release (new arrivals re-release)
	barArriving      bool          // a thread is mid release-and-arrive for this node
	barGate          sim.Gate
	barRelease       *barRelease
	barSentIntervals int   // own intervals already shipped in barrier arrivals
	barForwarded     int64 // highest episode relayed down the fan-out tree
	probeRot         int   // bounded probe sweep: rotating ring-window offset

	// Barrier state (master side).
	masterArrivals map[int]map[int]*barArrive // epoch -> node -> arrival
	masterDone     int                        // highest episode released

	releaseSeq int64 // per-node count of completed release operations
}

// lockHome is the home-side state of one lock.
type lockHome struct {
	vec  []bool // polling lock vector, one element per node
	vt   proto.VectorTime
	tail int // queue lock: last requester, -1 if free
	init bool
}

// ownedLock is a node's acquirer-side view of a lock it holds or is
// acquiring.
type ownedLock struct {
	held         bool    // this node owns the lock
	holder       *Thread // thread inside the critical section, nil if parked locally
	busy         bool    // a local thread is performing the remote acquire
	localWaiters int
	gate         sim.Gate
	// pendingGrant holds a queue-lock handoff obligation: when the local
	// release happens, grant to this node instead of keeping the cache.
	pendingGrant int // -1 none
	// releaseVT is the node's vector-time snapshot at its last release of
	// this lock (queue lock: travels with a grant served from the cache).
	releaseVT proto.VectorTime
	// The polling round's messages for this (node, lock). set and clr are
	// never written after lockState fills them in, so one instance serves
	// every round, every replica and whatever is still on the wire. read
	// carries the reply envelope (see lockReadReply): read0 and reply0,
	// refilled by every read, until an error replaces it with a new one.
	set    lockSet
	clr    lockClear
	read   *lockRead
	read0  lockRead
	reply0 lockReadReply
	// rel is the release envelope of the polling and NIC locks, refilled
	// only while nothing this node posted is in flight (see handOver).
	rel *lockRelease
}

// New validates opt and builds a cluster ready to Run.
func New(opt Options) (*Cluster, error) {
	cfg := opt.Config
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.Pages <= 0 {
		return nil, fmt.Errorf("svm: Pages = %d, need > 0", opt.Pages)
	}
	if opt.Body == nil {
		return nil, fmt.Errorf("svm: no Body")
	}
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("svm: need >= 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.Nodes*cfg.ThreadsPerNode > math.MaxInt16 {
		// Writer tags (page.writers) store thread ids as int16; a cluster
		// with more threads than that would silently alias writer identity
		// and corrupt the deferred-word bookkeeping. 32767 threads is far
		// past any tier this simulator models, so refuse rather than widen
		// the per-word tag array.
		return nil, fmt.Errorf("svm: %d threads exceed the int16 writer-tag capacity (%d)",
			cfg.Nodes*cfg.ThreadsPerNode, math.MaxInt16)
	}
	if opt.Mode == ModeFT && opt.LockAlgo == LockQueue {
		return nil, fmt.Errorf("svm: the queue lock has no fault-tolerant variant (§4.3); use LockPolling with ModeFT")
	}
	cl := &Cluster{
		eng:     sim.New(cfg.Seed),
		cfg:     &cfg,
		opt:     &opt,
		sliceNs: 20_000,
	}
	cl.trackWriters = opt.Mode == ModeFT && cfg.ThreadsPerNode > 1
	cl.tracked = !opt.FullTwins
	if psz := cfg.PageSize; psz&(psz-1) == 0 {
		cl.pageShift = uint(bits.TrailingZeros(uint(psz)))
		cl.pageLow = psz - 1
	}
	cl.net = vmmc.New(cl.eng, &cfg)
	assign := opt.HomeAssign
	if assign == nil {
		pages := opt.Pages
		assign = func(p int) int { return p * cfg.Nodes / pages }
	}
	nlocks := opt.Locks
	if nlocks == 0 {
		nlocks = 1
	}
	lockAssign := func(l int) int { return l % cfg.Nodes }
	degree := cfg.Degree()
	if cfg.Directory == model.DirHashed {
		cl.dirHashed = true
		// Distinct seeds so the page and lock rings scatter independently.
		cl.pageHomes = proto.NewHashedDirK(opt.Pages, cfg.Nodes, degree, cfg.Seed, assign)
		cl.lockHomes = proto.NewHashedDirK(nlocks, cfg.Nodes, degree, cfg.Seed+1, lockAssign)
	} else {
		cl.pageHomes = proto.NewHomeMapK(opt.Pages, cfg.Nodes, degree, assign)
		cl.lockHomes = proto.NewHomeMapK(nlocks, cfg.Nodes, degree, lockAssign)
	}

	cl.nodes = make([]*node, cfg.Nodes)
	for i := range cl.nodes {
		n := &node{
			id:             i,
			cl:             cl,
			ep:             cl.net.Endpoint(i),
			vt:             proto.NewVector(cfg.Nodes),
			owned:          make(map[int]*ownedLock),
			qlWait:         make(map[int]*sim.Future),
			ckpts:          checkpoint.NewStore(),
			savedTS:        make(map[int]proto.VectorTime),
			savedLists:     make(map[int][]proto.UpdateList),
			savedStash:     make(map[int]*diffCopy),
			ckptHome:       make(map[int]int),
			lockHomesState: make([]*lockHome, nlocks),
			barCount:       make(map[int64]int),
			masterArrivals: make(map[int]map[int]*barArrive),
		}
		n.pt = newPageTable(n, opt.Pages)
		n.ep.SetHandler(n.handle)
		cl.nodes[i] = n
	}
	k := 1 // replica homes per page and lock: more only in ModeFT
	if opt.Mode == ModeFT {
		k = degree
	}
	// Each node's first vector chunk holds exactly the versions of the
	// page and lock replicas it homes, carved below (see newVec).
	cl.vecs = make([]vecArena, cfg.Nodes)
	for s := 0; s < k; s++ {
		for p := 0; p < opt.Pages; p++ {
			cl.vecs[cl.pageHomes.Replica(p, s)].chunk++
		}
		for l := 0; l < nlocks; l++ {
			cl.vecs[cl.lockHomes.Replica(l, s)].chunk++
		}
	}
	for i, a := range cl.vecs {
		cl.vecs[i].free = make(proto.VectorTime, a.chunk*cfg.Nodes)
	}
	// Install home-side page storage at all k replica homes (slot 0 is
	// the primary/committed copy, every other slot a tentative copy).
	for p := 0; p < opt.Pages; p++ {
		cl.nodes[cl.pageHomes.Primary(p)].pt.initHome(p, proto.Primary, k > 1)
		for s := 1; s < k; s++ {
			cl.nodes[cl.pageHomes.Replica(p, s)].pt.initHome(p, proto.Secondary, true)
		}
	}
	// Install home-side lock state at all k replica homes.
	for l := 0; l < nlocks; l++ {
		for s := 0; s < k; s++ {
			cl.nodes[cl.lockHomes.Replica(l, s)].initLockHome(l)
		}
	}
	return cl, nil
}

func (n *node) initLockHome(l int) {
	if n.lockHomesState[l] == nil {
		n.lockHomesState[l] = &lockHome{
			vec:  make([]bool, n.cl.cfg.Nodes),
			vt:   n.newVec(),
			tail: -1,
			init: true,
		}
		n.touchLock(l)
	}
}

// vtSnapshot returns the node's vector time as a vector nobody writes: one
// clone per version of n.vt, shared by every message, checkpoint and sink
// that carries the node's time until vt next changes. Receivers that keep
// it (a backup's savedTS, a checkpoint, a master's arrival) keep the
// shared vector, so they must never write into it either.
func (n *node) vtSnapshot() proto.VectorTime {
	if n.vtSnap == nil {
		n.vtSnap = n.newVec()
		copy(n.vtSnap, n.vt)
		if h := n.cl.vtSnapHook; h != nil {
			h(n.vtSnap)
		}
	}
	return n.vtSnap
}

// vecArena is a node's vector arena: its chunk's rest and vector count.
type vecArena struct {
	free  proto.VectorTime
	chunk int
}

// newVec returns a zero vector time carved from the node's arena. After
// New's first chunk each holds twice the vectors of the one before, at
// least 4 and at most 512 elements' worth (DESIGN §6). A vector is capped
// at its length, so an append copies it instead of writing the next, and
// no slot is handed out twice.
func (n *node) newVec() proto.VectorTime {
	a, w := &n.cl.vecs[n.id], n.cl.cfg.Nodes
	if len(a.free) < w {
		a.chunk = min(max(2*a.chunk, 4), max(512/w, 1))
		a.free = make(proto.VectorTime, a.chunk*w)
	}
	v := a.free[:w:w]
	a.free = a.free[w:]
	return v
}

// advanceVT raises the node's entry for src to itv if it is behind. With
// mergeVT it is the only writer of n.vt, so no change can leave a stale
// snapshot cached.
func (n *node) advanceVT(src int, itv int32) {
	if n.vt[src] < itv {
		n.vt[src] = itv
		n.vtSnap = nil
	}
}

// mergeVT sets n.vt to the element-wise maximum of n.vt and o.
func (n *node) mergeVT(o proto.VectorTime) {
	for i, x := range o {
		n.advanceVT(i, x)
	}
}

// Engine exposes the underlying simulation engine (for scheduling
// failure injection and custom events).
func (cl *Cluster) Engine() *sim.Engine { return cl.eng }

// Network exposes the simulated interconnect (for traffic statistics).
func (cl *Cluster) Network() *vmmc.Network { return cl.net }

// Mode returns the protocol variant the cluster runs.
func (cl *Cluster) Mode() Mode { return cl.opt.Mode }

// Run spawns ThreadsPerNode threads on every node, executes the
// application to completion, and returns the first simulation error
// (deadlock, app panic).
func (cl *Cluster) Run() error {
	if cl.opt.Workers > 1 {
		if reason := cl.serialOnly(); reason != "" {
			cl.parReason = reason
		} else {
			cl.eng.Parallel(cl.opt.Workers, cl.cfg.LinkLatencyNs)
			// Node lanes read the directories concurrently, and a lookup
			// cache fill is an in-place write; lookups are O(1) without
			// the cache, so just turn it off. Rehome never runs here —
			// failure injection forces the serial engine.
			if d, ok := cl.pageHomes.(*proto.HashedDir); ok {
				d.DisableCache()
			}
			if d, ok := cl.lockHomes.(*proto.HashedDir); ok {
				d.DisableCache()
			}
		}
	}
	tid := 0
	for _, n := range cl.nodes {
		for k := 0; k < cl.cfg.ThreadsPerNode; k++ {
			t := &Thread{id: tid, cl: cl, node: n}
			cl.threads = append(cl.threads, t)
			n.threads = append(n.threads, t)
			tid++
		}
	}
	for _, t := range cl.threads {
		cl.spawnThread(t)
	}
	err := cl.eng.Run()
	if cl.auditErr != nil {
		// The auditor stopped the engine at the faulting event; its
		// violation is the root cause, not the truncated-run fallout.
		return cl.auditErr
	}
	return err
}

// serialOnly returns a reason the run must use the serial engine, or ""
// when parallel execution is legal. Every listed feature either mutates
// state shared across nodes from arbitrary lanes (chaos RNG, drop
// counters, probe-mode membership, the flight recorder) or observes the
// global event order itself (tracer, auditor, commit sink) — both are
// meaningless or racy when lanes execute concurrently.
func (cl *Cluster) serialOnly() string {
	switch {
	case cl.opt.Tracer != nil:
		return "tracer attached"
	case cl.flight != nil:
		return "flight recorder attached"
	case cl.aud != nil:
		return "auditor attached"
	case cl.commitSink != nil:
		return "commit sink attached"
	case cl.cfg.Chaos.Enabled:
		return "network chaos enabled"
	case cl.cfg.Detection == model.DetectProbe:
		return "probe-mode failure detection"
	case cl.net.DropEveryNth() > 0:
		return "deterministic packet drops"
	}
	return ""
}

// EngineWorkers returns the number of engine workers the run actually
// uses: Options.Workers when the parallel engine engaged, 1 otherwise.
func (cl *Cluster) EngineWorkers() int {
	if cl.eng.IsParallel() {
		return cl.opt.Workers
	}
	return 1
}

// SerialFallbackReason reports why a Workers > 1 run fell back to the
// serial engine, or "" if it did not.
func (cl *Cluster) SerialFallbackReason() string { return cl.parReason }

// spawnThread starts (or restarts, after migration) a thread's body.
func (cl *Cluster) spawnThread(t *Thread) {
	name := fmt.Sprintf("t%d@n%d", t.id, t.node.id)
	t.proc = cl.eng.SpawnOn(cl.eng.Lane(t.node.id), name, func(p *sim.Proc) {
		t.node.busy++
		defer func() {
			t.node.busy--
			cl.noteThreadExit(t.node)
		}()
		cl.opt.Body(t)
		t.finished = true
		t.endTime = p.Now()
	})
}

// trace emits a protocol milestone to the attached tracer and the
// flight recorder. Both are nil-guarded and charge no virtual time, so
// the default (neither enabled) costs two branches and the simulated
// event stream is identical with or without them, and a kill from
// either observer at the same event gives the same run.
func (cl *Cluster) trace(kind obs.Kind, nodeID, threadID int, seq int64) {
	if cl.opt.Tracer != nil {
		cl.opt.Tracer.Event(TraceEvent{Kind: kind.String(), Node: nodeID, Thread: threadID, Seq: seq})
	}
	if cl.flight != nil {
		cl.flight.Record(obs.Event{Kind: kind, Node: int32(nodeID), Thread: int32(threadID), Seq: seq})
	}
}

// EnableFlightRecorder attaches a per-node flight recorder keeping the
// last perNode protocol events of every node, stamped with virtual
// time. Call before Run. Returns the recorder so callers can attach a
// streaming sink or dump rings post-mortem.
func (cl *Cluster) EnableFlightRecorder(perNode int) *obs.Recorder {
	cl.flight = obs.NewRecorder(cl.cfg.Nodes, perNode, cl.eng.Now)
	return cl.flight
}

// FlightRecorder returns the attached recorder, or nil.
func (cl *Cluster) FlightRecorder() *obs.Recorder { return cl.flight }

// EnableWireTrace extends the flight recorder to wire-level boundaries:
// every vmmc message send (KMsgSend) and processed delivery
// (KMsgDeliver). Requires EnableFlightRecorder first; call before Run.
// Off by default — wire events outnumber protocol milestones by orders
// of magnitude and would flood the post-mortem rings, so only boundary
// enumeration (internal/explore) turns them on.
func (cl *Cluster) EnableWireTrace() {
	if cl.flight == nil {
		panic("svm: EnableWireTrace requires EnableFlightRecorder")
	}
	cl.net.SetFlightRecorder(cl.flight)
}

// CommitSink observes one committed interval: the committing node, the
// interval index it just opened (node's own vector entry after the
// commit), a snapshot of the node's vector time, and the captured diffs
// — everything a replay oracle needs to rebuild the interval's effect on
// a reference store. The vector and the diffs are live protocol objects:
// the vector is the snapshot the release then ships to lock homes,
// backups and checkpoints, and the diffs live in the releasing thread's
// release scratch, so they are valid only during the call. The sink must
// not modify either and must clone what it retains.
type CommitSink func(node int, interval int32, vt proto.VectorTime, diffs []*mem.Diff)

// SetCommitSink installs fn to run at every interval commit, before the
// interval propagates anywhere. Call before Run; pass nil to detach.
func (cl *Cluster) SetCommitSink(fn CommitSink) { cl.commitSink = fn }

// RecoveryPending reports whether a failure has been reported and its
// recovery episode has not yet completed.
func (cl *Cluster) RecoveryPending() bool { return cl.rec.pending }

// NodeDead reports whether node id has fail-stopped.
func (cl *Cluster) NodeDead(id int) bool { return cl.nodes[id].dead }

// Degree returns the home-replication degree k the cluster runs at.
func (cl *Cluster) Degree() int { return cl.cfg.Degree() }

// LiveNodes returns the number of nodes that have not fail-stopped.
func (cl *Cluster) LiveNodes() int {
	live := 0
	for _, n := range cl.nodes {
		if !n.dead {
			live++
		}
	}
	return live
}

// UnrecoveredFailures returns the number of failed nodes whose recovery
// episode has not yet completed (dead but not excluded). The protocol
// tolerates up to Degree()-1 of these overlapping; the k-th overlapping
// failure is the one the explorer's refusal rule rejects.
func (cl *Cluster) UnrecoveredFailures() int { return cl.unrecovered }

// Nodes returns the cluster size (including failed nodes).
func (cl *Cluster) Nodes() int { return cl.cfg.Nodes }

// NumPages returns the number of shared pages.
func (cl *Cluster) NumPages() int { return cl.pageHomes.Items() }

// DirectoryBytes returns the combined resident footprint of the page and
// lock home directories — the directory-memory metric of the scaling
// bench grid.
func (cl *Cluster) DirectoryBytes() int64 {
	return cl.pageHomes.MemoryBytes() + cl.lockHomes.MemoryBytes()
}

// RehomeWallNs returns the accumulated host wall time spent inside
// directory Rehome calls across every recovery this cluster ran.
func (cl *Cluster) RehomeWallNs() int64 { return cl.rehomeWallNs }

// PageSize returns the shared-page size in bytes.
func (cl *Cluster) PageSize() int { return cl.cfg.PageSize }

// LiveVT returns the merge of every live node's vector time — the final
// consistency frontier after a run. A failed node's entry is its saved
// (arbitrated) timestamp: recovery's global sync clamps the dead entry
// to the roll-forward/roll-back decision and merges it everywhere, so
// intervals beyond it were rolled back and never became visible.
func (cl *Cluster) LiveVT() proto.VectorTime {
	vt := proto.NewVector(cl.cfg.Nodes)
	for _, n := range cl.nodes {
		if !n.dead {
			vt.Merge(n.vt)
		}
	}
	return vt
}

// Metrics returns the unified counter snapshot: protocol stats,
// checkpoint count and network traffic under dotted prefixes, always in
// this order (the bench ledger hashes the snapshot into its cell
// fingerprints).
func (cl *Cluster) Metrics() obs.Snapshot {
	s := cl.ProtoStats()
	tr := cl.net.Totals()
	return obs.Snapshot{
		{Name: "svm.read_faults", Value: s.ReadFaults},
		{Name: "svm.remote_fetches", Value: s.RemoteFetches},
		{Name: "svm.local_fetches", Value: s.LocalFetches},
		{Name: "svm.write_faults", Value: s.WriteFaults},
		{Name: "svm.pages_diffed", Value: s.PagesDiffed},
		{Name: "svm.home_pages_diffed", Value: s.HomePagesDiffed},
		{Name: "svm.twin_bytes_copied", Value: s.TwinBytesCopied},
		{Name: "svm.diff_msgs", Value: s.DiffMsgs},
		{Name: "svm.diff_bytes", Value: s.DiffBytes},
		{Name: "svm.invalidations", Value: s.Invalidations},
		{Name: "svm.intervals", Value: s.Intervals},
		{Name: "svm.deferred_words", Value: s.DeferredWords},
		{Name: "svm.remote_acquires", Value: s.RemoteAcquires},
		{Name: "svm.intra_node_handoffs", Value: s.IntraNodeHandoffs},
		{Name: "svm.barrier_episodes", Value: s.BarrierEpisodes},
		{Name: "svm.recoveries", Value: s.Recoveries},
		{Name: "svm.migrated_threads", Value: s.MigratedThreads},
		{Name: "ckpt.checkpoints", Value: cl.CheckpointCount()},
		{Name: "vmmc.msgs_sent", Value: tr.MsgsSent},
		{Name: "vmmc.bytes_sent", Value: tr.BytesSent},
		{Name: "vmmc.msgs_received", Value: tr.MsgsReceived},
		{Name: "vmmc.post_stalls_ns", Value: tr.PostStallsNs},
		{Name: "vmmc.retransmits", Value: cl.net.Retransmits},
		{Name: "vmmc.retx_bytes", Value: cl.net.RetxBytes},
		{Name: "vmmc.probes_sent", Value: cl.net.ProbesSent},
		{Name: "vmmc.probe_acks", Value: cl.net.ProbeAcks},
		{Name: "vmmc.false_suspicions", Value: cl.net.FalseSuspicions},
	}
}

// backupOf returns the node that stores checkpoints and saved timestamps
// for node id: the next non-excluded, non-failed node in ring order.
func (cl *Cluster) backupOf(id int) int {
	for i := 1; i <= len(cl.nodes); i++ {
		c := (id + i) % len(cl.nodes)
		if !cl.nodes[c].dead && !cl.nodes[c].excluded {
			return c
		}
	}
	panic("svm: no live backup node")
}

// backupScratch sizes the stack array the release path hands backupsOf:
// up to degree 5 the deposit targets never touch the heap.
const backupScratch = 4

// backupsOf appends to out the first m distinct live, non-excluded ring
// successors of node id — the deposit targets for k-replicated saved
// state (m = Degree()-1) — and returns it.
func (cl *Cluster) backupsOf(id, m int, out []int) []int {
	for i := 1; i < len(cl.nodes) && len(out) < m; i++ {
		c := (id + i) % len(cl.nodes)
		if !cl.nodes[c].dead && !cl.nodes[c].excluded {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		panic("svm: no live backup node")
	}
	return out
}

// Threads returns all compute threads (including migrated ones).
func (cl *Cluster) Threads() []*Thread { return cl.threads }

// ExecTime returns the application execution time: the virtual time at
// which the last thread finished.
func (cl *Cluster) ExecTime() int64 {
	var max int64
	for _, t := range cl.threads {
		if t.endTime > max {
			max = t.endTime
		}
	}
	return max
}

// AvgBreakdown returns the per-component breakdown averaged over threads
// that finished.
func (cl *Cluster) AvgBreakdown() Breakdown {
	var sum Breakdown
	var n int64
	for _, t := range cl.threads {
		if t.finished {
			sum.Add(&t.bd)
			n++
		}
	}
	sum.Scale(n)
	return sum
}

// CheckpointCount returns the total number of thread-state checkpoints
// taken (points A and B across all releases), summed over the per-node
// shards.
func (cl *Cluster) CheckpointCount() int64 {
	var sum int64
	for _, n := range cl.nodes {
		sum += n.ckptCount
	}
	return sum
}

// Finished reports whether every live thread ran to completion.
func (cl *Cluster) Finished() bool {
	for _, t := range cl.threads {
		if !t.dead && !t.finished {
			return false
		}
	}
	return true
}
