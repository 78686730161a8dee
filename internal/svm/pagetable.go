package svm

import (
	"iter"

	"ftsvm/internal/mem"
	"ftsvm/internal/model"
	"ftsvm/internal/proto"
	"ftsvm/internal/sim"
	"ftsvm/internal/vmmc"
)

// pageState is the node-local access state of a shared page.
type pageState uint8

const (
	// pInvalid: the local working copy is stale; access faults and fetches
	// from the page's (primary) home.
	pInvalid pageState = iota
	// pReadOnly: the working copy is valid for reads; the first write
	// creates a twin and starts recording the page in the current interval.
	pReadOnly
	// pWritable: the page is dirty in the current interval and has a twin.
	pWritable
)

// undoRec is a stored pre-image for rolling back one interval's phase-1
// update. The record owns the pre-image's storage (buf): the copy that
// arrived points into the sender's release scratch.
type undoRec struct {
	interval int32
	undo     mem.Diff
	buf      mem.DiffBuf
}

// fetchWaiter is a deferred reply to a remote fetch: the home's copy has
// not yet reached the version req.Need (its diffs are still in flight), so
// the request, with the envelope its reply is filled into, is held until
// the missing diffs are applied.
type fetchWaiter struct {
	d   *vmmc.Delivery
	req *fetchReq
}

// page is one shared page as seen by one node: the working copy all local
// threads read and write, plus the home-side copies this node maintains for
// its home pages.
type page struct {
	id    int
	pt    *pageTable
	state pageState

	working []byte // local copy; nil until first touched
	twin    []byte // pre-write snapshot while pWritable

	// dirtyMask records which ChunkBytes-granular chunks were written
	// since the twin was created (one bit per chunk; see internal/mem
	// tracking). Every twin carries one. The twin is partial: it holds
	// valid pre-write data only inside dirty chunks, snapshotted lazily at
	// the first write to each chunk, or at once for the whole page with
	// every chunk marked (maskFull).
	dirtyMask []uint64

	// maskFull means every chunk of dirtyMask is marked: the write fault
	// took a complete upfront twin (dense-writer path, or FullTwins), so
	// per-write chunk snapshotting is a no-op for this interval.
	maskFull bool

	// denseHint records that this page's previous commit had dirtied nearly
	// every chunk. The next write fault then snapshots the whole page at
	// once instead of chunk-by-chunk: one page-sized copy is cheaper than
	// dozens of chunk copies plus per-write mask probes, and pre-marking
	// clean chunks cannot change the diff (their contents equal the twin).
	denseHint bool

	// audTouched marks the page as already on the auditor's touched list
	// for the current event boundary (see touch).
	audTouched bool

	// homeStale marks a base-mode home page whose notified remote diffs
	// have not all arrived yet; the home's own next access waits.
	homeStale bool

	// locked marks a page committed by an outstanding release (extended
	// protocol): local faults stall until the release completes.
	locked bool

	// lastLocalItv is the most recent local interval that committed
	// updates to this page. A fetch must wait until the home has applied
	// it, or a node that re-fetches a page loses its *own* in-flight
	// updates (write notices never cover one's own intervals).
	//
	// The flags above and this field share two words; with them packed a
	// page is 496 bytes, and a run of pageRunLen of them plus the
	// allocator's 8-byte header fits the 8 KB size class.
	lastLocalItv int32

	// dirtyTwin preserves a dirty page's twin across an invalidation
	// (false sharing: a concurrent remote writer updated the page while we
	// hold uncommitted local writes). The next access fetches the home
	// copy and replays our local diff over it. stashMask is the dirty
	// mask that travels with the stashed pair.
	dirtyTwin    []byte
	dirtyWorking []byte
	stashMask    []uint64

	// seenCommit dedups this page within one commitInterval pass (the
	// dirty list may hold duplicates from fetch-merge re-listing).
	seenCommit int64

	// reqVer is the version this node must observe on its next fetch,
	// accumulated from write notices at acquires and barriers. nil is the
	// zero vector: it is allocated by the first setReqVer, so a run pays
	// for the (node, page) pairs that are ever notified, not for N x pages.
	// Read elements through reqAt.
	reqVer proto.VectorTime

	// writers tracks the local thread that last wrote each word since the
	// twin was taken (extended-protocol SMP runs only; nil otherwise).
	writers []int16

	// Home-side state. In base mode the working copy doubles as the home
	// copy and baseVer tracks its version. In FT mode the primary home
	// keeps committed (+commitVer) and the secondary home keeps tentative
	// (+tentVer); remote diffs are never applied to working copies.
	baseVer   proto.VectorTime
	committed []byte
	commitVer proto.VectorTime
	tentative []byte
	tentVer   proto.VectorTime

	// lockGate is broadcast when a release unlocks the page (see locked).
	lockGate sim.Gate

	// verGate is broadcast whenever a home copy's version advances, waking
	// local fetches waiting for in-flight diffs.
	verGate sim.Gate

	// waiters are deferred remote fetch replies (home side).
	waiters []fetchWaiter

	// undoFrom holds, per source node, the pre-image of the latest
	// phase-1 diff that arrived from it; recovery uses it to roll the
	// tentative copy back when that releaser dies before saving its
	// timestamp.
	undoFrom map[int]undoRec

	// fetching de-duplicates concurrent local faults on the same page.
	fetching *sim.Future
}

// pageRunLen is the number of pages materialised together: page pid lives
// in run pid>>pageRunShift at offset pid&(pageRunLen-1). Measured: runs of
// 16 build the 512-node x 512-page cluster in 13.4 MB (one slab of every
// page per node took 145) and cost the paper grid, whose nodes touch every
// page, 0.26% more heap objects than the slab did; runs of 8 build it in
// 11.8 MB for 0.51% more objects, runs of 32 in 17.4 MB for 0.13%.
const (
	pageRunShift = 4
	pageRunLen   = 1 << pageRunShift
)

// pageTable is a node's software page table, shared by all threads on the
// node (SMP semantics: one address space per node). It holds the pages the
// node has touched: at 512 nodes a node touches a handful of the cluster's
// pages, and N tables of every page are what a cluster's memory would
// otherwise go to.
type pageTable struct {
	node   *node
	npages int
	// runs[r] is nil until one of its pages is first touched; the last run
	// is short when npages is not a multiple of pageRunLen. An absent page
	// is exactly the zero page{id, pt}: pInvalid, no buffers, reqVer nil, no
	// waiters, not locked. Materialising it writes no audited field, so it
	// is not reported to the auditor. Read runs through page and present
	// only.
	runs [][]page
	// aud is the cluster's auditor, nil unless EnableAuditor attached one:
	// the page funnels below report to it.
	aud *auditor
}

func newPageTable(n *node, npages int) *pageTable {
	return &pageTable{node: n, npages: npages, runs: make([][]page, (npages+pageRunLen-1)>>pageRunShift)}
}

// page returns page pid, materialising its run on first touch. It is on
// the path of every shared access and inlines: a hit is a bounds-checked
// load, a nil check and an index.
func (pt *pageTable) page(pid int) *page {
	r := pt.runs[pid>>pageRunShift]
	if r == nil {
		r = pt.materialise(pid)
	}
	return &r[pid&(pageRunLen-1)]
}

// materialise builds and returns the run that holds page pid.
func (pt *pageTable) materialise(pid int) []page {
	base := pid &^ (pageRunLen - 1)
	r := make([]page, min(pageRunLen, pt.npages-base))
	for i := range r {
		r[i].id, r[i].pt = base+i, pt
	}
	pt.runs[pid>>pageRunShift] = r
	return r
}

// present yields the materialised pages in page order, for the walks that
// look over a whole table for pages in some state: an absent page is in
// none, and a walk must not build the table to find that out.
func (pt *pageTable) present() iter.Seq[*page] {
	return func(yield func(*page) bool) {
		for _, r := range pt.runs {
			for i := range r {
				if !yield(&r[i]) {
					return
				}
			}
		}
	}
}

// --- Audited-field funnels ---
//
// The online auditor (audit.go) re-checks a page only at event boundaries
// where one of the fields its invariants read was written. That is sound
// only if every write goes through here: state, working, the twin pair
// (twin, dirtyMask), the stash triple (dirtyTwin, dirtyWorking, stashMask)
// and the elements of reqVer are assigned nowhere else. Un-audited runs
// pay one nil check per write; the funnels change no protocol state of
// their own.

// touch reports the page to the auditor's touched list, once per boundary.
func (pg *page) touch() {
	if a := pg.pt.aud; a != nil && !pg.audTouched {
		pg.audTouched = true
		a.pages = append(a.pages, pg)
	}
}

func (pg *page) setState(s pageState) {
	pg.state = s
	pg.touch()
}

func (pg *page) setWorking(b []byte) {
	pg.working = b
	pg.touch()
}

// setTwin assigns the twin and the dirty mask that says which of its
// chunks are valid; the two travel together.
func (pg *page) setTwin(twin []byte, mask []uint64) {
	pg.twin, pg.dirtyMask = twin, mask
	pg.touch()
}

// setStash assigns the stashed dirty pair and the mask that travels with it.
func (pg *page) setStash(twin, working []byte, mask []uint64) {
	pg.dirtyTwin, pg.dirtyWorking, pg.stashMask = twin, working, mask
	pg.touch()
}

// setReqVer assigns one element of the required version. The auditor keeps
// the element's value at the previous boundary, so it is told which element
// moved rather than re-reading the whole vector.
func (pg *page) setReqVer(src int, v int32) {
	if pg.reqVer == nil {
		pg.reqVer = pg.pt.node.newVec()
	}
	pg.reqVer[src] = v
	if a := pg.pt.aud; a != nil {
		a.vers = append(a.vers, verTouch{pg, int32(src)})
	}
}

// reqAt returns element src of the required version (zero while reqVer is
// still nil).
func (pg *page) reqAt(src int) int32 {
	if pg.reqVer == nil {
		return 0
	}
	return pg.reqVer[src]
}

// stashDirty handles an invalidation of a page holding uncommitted local
// writes (false sharing): the twin, working copy and dirty mask move to the
// stash, and the next access fetches the home copy and merges them back.
func (pg *page) stashDirty() {
	pg.setStash(pg.twin, pg.working, pg.dirtyMask)
	pg.setTwin(nil, nil)
	pg.setWorking(nil)
	pg.maskFull = false
	pg.setState(pInvalid)
}

// --- Page-buffer pool ---
//
// Twins, working copies, and fetch-reply payloads are all PageSize bytes
// and churn at every write fault, fetch, and interval commit; recycling
// them keeps the steady-state fault and commit paths allocation-free. A
// fetch-reply payload is taken from the requester's pool (see fetchReply),
// so a fetch that installs it and recycles the working copy it replaces
// leaves both the requester's and the home's pool as it found them.
// Each node owns its own stacks, so every pool access is lane-local under
// the parallel engine (buffers may migrate between node pools over their
// lifetime — invisible to the protocol, since contents are always
// (re)initialized on get), and concurrent RunGrid simulations never
// contend.

// getPageBuf returns a page-size buffer with arbitrary contents.
func (n *node) getPageBuf() []byte {
	if k := len(n.pageFree); k > 0 {
		b := n.pageFree[k-1]
		n.pageFree[k-1] = nil
		n.pageFree = n.pageFree[:k-1]
		return b
	}
	return make([]byte, n.cl.cfg.PageSize)
}

// getPageBufZero returns a zeroed page buffer: fresh working copies must
// read as zero-initialized shared memory. Only a recycled buffer needs
// clearing; a new one comes zeroed from make.
func (n *node) getPageBufZero() []byte {
	if len(n.pageFree) == 0 {
		return make([]byte, n.cl.cfg.PageSize)
	}
	b := n.getPageBuf()
	clear(b)
	return b
}

// putPageBuf recycles a page buffer. The caller must guarantee no other
// reference survives. nil and wrong-size buffers are dropped.
func (n *node) putPageBuf(b []byte) {
	if len(b) != n.cl.cfg.PageSize {
		return
	}
	n.pageFree = append(n.pageFree, b)
}

// getMaskBuf returns a zeroed dirty-chunk mask sized for one page.
func (n *node) getMaskBuf() []uint64 {
	if k := len(n.maskFree); k > 0 {
		m := n.maskFree[k-1]
		n.maskFree[k-1] = nil
		n.maskFree = n.maskFree[:k-1]
		clear(m)
		return m
	}
	return make([]uint64, mem.MaskWords(n.cl.cfg.PageSize))
}

// putMaskBuf recycles a dirty-chunk mask.
func (n *node) putMaskBuf(m []uint64) {
	if m == nil {
		return
	}
	n.maskFree = append(n.maskFree, m)
}

// fillNeed writes into dst (N wide) the version a fetch by node me must
// observe: the accumulated write notices plus this node's own last
// committed interval for the page.
func (pg *page) fillNeed(dst proto.VectorTime, me int) {
	if pg.reqVer == nil {
		clear(dst)
	} else {
		copy(dst, pg.reqVer)
	}
	dst[me] = max(dst[me], pg.lastLocalItv)
}

// coversNeed reports whether ver covers what fillNeed would write, without
// building it.
func (pg *page) coversNeed(ver proto.VectorTime, me int) bool {
	return (pg.reqVer == nil || ver.Covers(pg.reqVer)) && ver[me] >= pg.lastLocalItv
}

// ensureWorking lazily allocates the working copy from the cluster pool.
func (pg *page) ensureWorking() []byte {
	if pg.working == nil {
		pg.setWorking(pg.pt.node.getPageBufZero())
	}
	return pg.working
}

// initHome sets up home-side storage for this node's home pages.
func (pt *pageTable) initHome(pid int, role proto.Role, ft bool) {
	pg := pt.page(pid)
	if !ft {
		if pg.baseVer == nil {
			pg.baseVer = pt.node.newVec()
		}
		// Base-mode home pages are always valid at their home.
		pg.ensureWorking()
		if pg.state == pInvalid {
			pg.setState(pReadOnly)
		}
		return
	}
	switch role {
	case proto.Primary:
		if pg.committed == nil {
			pg.committed = pt.node.getPageBufZero()
			pg.commitVer = pt.node.newVec()
		}
	case proto.Secondary:
		if pg.tentative == nil {
			pg.tentative = pt.node.getPageBufZero()
			pg.tentVer = pt.node.newVec()
		}
	}
}

// applyDiffToCopy applies a remote diff to one of the home copies and
// advances that copy's version. It wakes any fetch waiter whose required
// version is now covered. Runs in engine context (NI-applied, no host CPU).
func (pg *page) applyDiff(copyBuf []byte, ver proto.VectorTime, src int, interval int32, d *mem.Diff) {
	d.Apply(copyBuf)
	if ver[src] < interval {
		ver[src] = interval
	}
}

// serveWaiters replies to deferred fetches now satisfied by ver over buf,
// filling each request's own envelope.
func (pg *page) serveWaiters(ver proto.VectorTime, buf []byte, replySize int) {
	kept := pg.waiters[:0]
	n := pg.pt.node
	for _, w := range pg.waiters {
		if ver.Covers(w.req.Need) {
			rep := w.req.fill(buf, ver)
			sz := replySize
			if n.cl.cfg.VTCodec == model.VTDelta {
				// The legacy replySize is a flat approximation; the delta
				// codec must cost (and advance) the real link context.
				sz = n.msgWire(w.d.Src, rep)
			}
			w.d.Reply(rep, sz)
		} else {
			kept = append(kept, w)
		}
	}
	pg.waiters = kept
}
