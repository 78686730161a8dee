package svm

import "ftsvm/internal/mem"

// releaseScratch is a thread's storage for the objects one release builds:
// the captured diffs and their pre-images (headers in diffs, runs and
// payload bytes in buf), the capture, page and commit-sink lists, the diff
// stash for the backups, the diffMsg envelopes, the one saveTSMsg and the
// point-B checkpoint blob it carries.
// Nothing in it is allocated again once it has grown to the thread's
// largest release.
//
// All of it stays valid from commitInterval until recycle, which
// performRelease calls after the release's last fence: that of its last
// propagate, which in the extended protocol comes after phase 2 and any
// recovery re-propagation. By then every
// message that points into the scratch has been delivered (or has failed
// at a dead destination), so only what a receiver kept could still point
// here — and receivers keep copies (applyDiffMsg, storeSavedTS, and the
// checkpoint store's Put). The scratch belongs to a thread, not a node:
// base-mode SMP releases on one node are not serialized.
type releaseScratch struct {
	buf      mem.DiffBuf
	diffs    slab[mem.Diff]
	caps     []capturedDiff
	pages    []int
	retained []int
	logged   []*mem.Diff
	stash    []*mem.Diff
	kept     []mem.Run
	msgs     slab[diffMsg]
	save     saveTSMsg // the deposit, one envelope for every backup's copy
	ckpt     []byte    // the deposit's checkpoint blob
}

// diff returns a fresh diff header holding runs.
func (s *releaseScratch) diff(page int, runs []mem.Run) *mem.Diff {
	d := s.diffs.get()
	*d = mem.Diff{Page: page, Runs: runs}
	return d
}

// preImage builds the undo diff: the same modified regions with the twin's
// (pre-write) contents. The regions are exactly d's runs, which lie inside
// dirty chunks, so a partial twin is valid everywhere this reads.
func (s *releaseScratch) preImage(d *mem.Diff, twin []byte) *mem.Diff {
	return s.diff(d.Page, s.buf.AppendRegions(d.Runs, twin))
}

// diffMsg returns an envelope carrying c's diff (and, in phase 1, its
// pre-image) from src.
func (s *releaseScratch) diffMsg(c capturedDiff, src int, itv int32, phase int) *diffMsg {
	m := s.msgs.get()
	*m = diffMsg{Page: c.pid, Src: src, Interval: itv, Phase: phase, Diff: c.diff}
	if phase == 1 {
		m.Undo = c.undo
	}
	return m
}

// recycle makes the scratch reusable by the thread's next release. The
// deposit envelope is cleared so it does not hold a checkpoint blob until
// reuse.
func (s *releaseScratch) recycle() {
	if poisonScratch {
		s.poison()
	}
	s.save = saveTSMsg{}
	s.buf.Reset()
	s.diffs.reset()
	s.msgs.reset()
	s.caps = s.caps[:0]
	s.logged = s.logged[:0]
	s.stash = s.stash[:0]
}

// poisonScratch makes recycle overwrite everything the scratch handed out,
// and recovery do the same to a failed node's scratch before it reads any
// state the dead node deposited (a dead node's memory is gone). A receiver
// that kept a pointer into a sender's scratch instead of a copy then reads
// page -1, offset -1 runs and 0xDB bytes: the simulation panics or the
// final memory is wrong. Test-only: set by the poison build tag (poison.go)
// and by tests.
var poisonScratch bool

// poison overwrites every diff, run, payload byte and envelope handed out
// since the last recycle, and the checkpoint blob.
func (s *releaseScratch) poison() {
	for _, d := range s.diffs.used() {
		for i := range d.Runs {
			r := &d.Runs[i]
			for j := range r.Data {
				r.Data[j] = 0xDB
			}
			r.Off = -1
		}
		d.Page = -1
	}
	for _, m := range s.msgs.used() {
		*m = diffMsg{Page: -1, Src: -1, Interval: -1, Phase: -1}
	}
	s.save = saveTSMsg{Node: -1, CkptThread: -1, CkptHome: -1}
	for i := range s.ckpt {
		s.ckpt[i] = 0xDB
	}
}

// slab hands out reusable objects: get returns one not handed out since
// the last reset, allocating only when every object is in use — then a
// chunk as large as the slab so far, so the slab doubles in one object.
// Objects never move, so a pointer stays valid across later gets.
type slab[T any] struct {
	items []*T
	n     int
}

func (s *slab[T]) get() *T {
	if s.n == len(s.items) {
		chunk := make([]T, max(len(s.items), 4))
		for i := range chunk {
			s.items = append(s.items, &chunk[i])
		}
	}
	p := s.items[s.n]
	s.n++
	return p
}

// used returns the objects handed out since the last reset.
func (s *slab[T]) used() []*T { return s.items[:s.n] }

func (s *slab[T]) reset() { s.n = 0 }

// diffCopy is a receiver's own copy of diffs that arrived in a message,
// replaced in place by the next set: the sender's copy lives in its
// release scratch, recycled as soon as the release ends.
type diffCopy struct {
	diffs []mem.Diff
	buf   mem.DiffBuf
}

func (c *diffCopy) set(ds []*mem.Diff) {
	c.buf.Reset()
	c.diffs = c.diffs[:0]
	for _, d := range ds {
		c.diffs = append(c.diffs, mem.Diff{Page: d.Page, Runs: c.buf.AppendClone(d.Runs)})
	}
}

// pageSlabMin and pageSlabMax bound the chunks listPages carves interval
// page lists from: small first, so a node with few intervals (the 512-node
// tiers) pays little, doubling up to a cap.
const (
	pageSlabMin = 16
	pageSlabMax = 4096
)

// listPages copies an interval's page list into the node's page slab and
// returns it as a capped window. The interval log keeps its lists forever,
// so the slab is append-only: a full chunk is replaced by a fresh one, not
// grown, and the windows carved from it keep it.
func (n *node) listPages(pages []int) []int {
	if cap(n.pageSlab)-len(n.pageSlab) < len(pages) {
		n.pageSlab = make([]int, 0, max(min(2*cap(n.pageSlab), pageSlabMax), pageSlabMin, len(pages)))
	}
	start := len(n.pageSlab)
	n.pageSlab = append(n.pageSlab, pages...)
	return n.pageSlab[start:len(n.pageSlab):len(n.pageSlab)]
}
