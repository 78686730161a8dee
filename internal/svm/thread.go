package svm

import (
	"encoding/binary"
	"fmt"
	"math"

	"ftsvm/internal/checkpoint"
	"ftsvm/internal/mem"
	"ftsvm/internal/sim"
)

// Thread is one compute thread of the application. All shared-memory and
// synchronization operations go through its methods; every operation is a
// protocol safe point (where sibling suspension, recovery participation,
// and checkpointing may occur) and advances the thread's virtual clock.
type Thread struct {
	id   int
	cl   *Cluster
	node *node
	proc *sim.Proc

	bd        Breakdown
	debt      int64
	inBarrier bool
	locksHeld int // application locks currently held (in a critical section)

	state        any
	restoredBlob []byte
	resumed      bool
	ckptSeq      int64
	barSeq       int64 // completed global barriers

	dead       bool
	finished   bool
	migrated   bool
	inRecovery bool
	blocked    bool // inside a blocking protocol wait (suspendable in place)
	endTime    int64

	// fetch and upd are the thread's remote-fetch and update-list requests
	// with their reply envelopes (see fetchReply and updatesReply), each nil
	// until its first use and after one abandoned by an error. They are per
	// thread because SMP siblings fetch concurrently.
	fetch *fetchReq
	upd   *updatesReq

	rel  releaseScratch // this thread's release storage (see releaseScratch)
	ckpt ckptScratch    // its point-A and no-update deposits (see ckptScratch)
}

// ID returns the thread's global id.
func (t *Thread) ID() int { return t.id }

// NodeID returns the node the thread currently runs on (it changes if the
// thread is migrated after a failure).
func (t *Thread) NodeID() int { return t.node.id }

// NThreads returns the total number of compute threads.
func (t *Thread) NThreads() int { return len(t.cl.threads) }

// Resumed reports whether this execution of the body is a post-failure
// replay from a checkpoint.
func (t *Thread) Resumed() bool { return t.resumed }

// Now returns the thread's current virtual time (including unflushed local
// work).
func (t *Thread) Now() int64 { return t.proc.Now() + t.debt }

// Breakdown returns the thread's accumulated time breakdown.
func (t *Thread) Breakdown() Breakdown { return t.bd }

// Setup registers the thread's resumable state: a pointer to a
// gob-serializable struct holding everything needed to continue from a
// synchronization point (phase counters, loop indices, private scratch).
// On a post-failure replay the last checkpoint is decoded into state and
// Setup returns true. It must be the first Thread call in the body.
func (t *Thread) Setup(state any) (resumed bool) {
	t.state = state
	if t.restoredBlob != nil {
		if err := checkpoint.Decode(t.restoredBlob, state); err != nil {
			panic(fmt.Sprintf("svm: thread %d restore: %v", t.id, err))
		}
		t.restoredBlob = nil
		t.resumed = true
		return true
	}
	return false
}

// Compute charges ns nanoseconds of application CPU time (scaled by SMP
// contention).
func (t *Thread) Compute(ns int64) {
	t.safePoint()
	t.charge(CompCompute, ns)
}

// IdleUntil parks the thread until virtual time ns without charging
// processor cost — the open-loop serving driver's inter-arrival wait,
// where a thread sits idle until its next request's arrival time. The
// wait counts as CompIdle and frees the node's SMP contention slot
// (an idle server core does not contend for the memory bus). It is
// recovery-interruptible: the failure-notification broadcast wakes the
// thread so it joins the recovery barrier promptly, then the wait
// resumes until the target time. A target in the past returns
// immediately, so replayed (post-migration) requests drain back-to-back.
func (t *Thread) IdleUntil(ns int64) {
	t.safePoint()
	t.flush()
	for t.proc.Now() < ns {
		d := ns - t.proc.Now()
		t0 := t.beginWait()
		t.node.idleGate.WaitTimeout(t.proc, d)
		t.endWait(CompIdle, t0)
		t.safePoint()
	}
}

// charge accrues CPU cost into component c and the thread's time debt,
// flushing the debt into virtual time when it exceeds the slice.
func (t *Thread) charge(c Component, ns int64) {
	ns = t.cl.cfg.Contention(ns, t.node.busy)
	t.bd.Comp[c] += ns
	if t.inBarrier {
		t.bd.AtBarrier[c] += ns
	}
	t.debt += ns
	if t.debt >= t.cl.sliceNs {
		t.flush()
	}
}

// flush converts accumulated time debt into virtual-time progress.
func (t *Thread) flush() {
	if t.debt > 0 {
		d := t.debt
		t.debt = 0
		t.proc.Advance(d)
	}
}

// beginWait flushes pending work and returns the wait start time.
func (t *Thread) beginWait() int64 {
	t.flush()
	t.node.busy--
	t.blocked = true
	return t.proc.Now()
}

// endWait attributes the elapsed wait to component c.
func (t *Thread) endWait(c Component, t0 int64) {
	t.blocked = false
	t.node.busy++
	dt := t.proc.Now() - t0
	t.bd.Comp[c] += dt
	if t.inBarrier {
		t.bd.AtBarrier[c] += dt
	}
}

// safePoint is the per-operation protocol hook: a detected failure pulls
// the thread into the recovery barrier here.
func (t *Thread) safePoint() {
	if t.cl.rec.pending && !t.inRecovery && !t.dead {
		t.participateRecovery()
	}
}

// --- Shared memory access API ---
//
// The shared address space is Pages*PageSize bytes, addressed by byte
// offset. Multi-byte accesses must not straddle a page (natural alignment
// guarantees this for power-of-two page sizes).

func (t *Thread) pageOf(addr int) (*page, int) {
	var pid, off int
	if s := t.cl.pageShift; s != 0 {
		pid, off = addr>>s, addr&t.cl.pageLow
	} else {
		psz := t.cl.cfg.PageSize
		pid, off = addr/psz, addr%psz
	}
	if pid < 0 || pid >= t.node.pt.npages {
		panic(fmt.Sprintf("svm: address %d out of shared space", addr))
	}
	return t.node.pt.page(pid), off
}

// readable ensures the page may be read locally, faulting if needed.
func (t *Thread) readable(pg *page) {
	for pg.state == pInvalid {
		t.readFault(pg)
	}
}

// writable ensures the page may be written locally, faulting and creating
// a twin if needed.
func (t *Thread) writable(pg *page) {
	for pg.state != pWritable {
		if pg.state == pInvalid {
			t.readFault(pg)
			continue
		}
		// pReadOnly -> pWritable: write fault.
		t.writeFault(pg)
	}
}

// track snapshots the chunks about to be dirtied by an n-byte write at
// off into pg's partial twin (lazy, chunk-granular twinning). Call after
// writable(pg) and before mutating pg.working. No-op on the steady-state
// path (chunks already dirty) and when the write fault took a whole-page
// twin (maskFull).
func (t *Thread) track(pg *page, off, n int) {
	if pg.maskFull {
		return
	}
	mask := pg.dirtyMask
	// Steady-state fast path: a write confined to one already-dirty chunk
	// (the overwhelmingly common case — word writes into hot chunks) needs
	// only the bit probe, not MarkAndSnapshot's loop.
	first := off >> mem.ChunkShift
	if (off+n-1)>>mem.ChunkShift == first &&
		mask[first>>6]&(uint64(1)<<(uint(first)&63)) != 0 {
		return
	}
	if c := mem.MarkAndSnapshot(mask, pg.twin, pg.working, off, n); c != 0 {
		t.node.stats.TwinBytesCopied += int64(c)
	}
}

// markWriter records t as the last writer of the words covering
// [off, off+n) of pg. Tracking is active only for extended-protocol SMP
// runs, where commitInterval uses it to defer a sibling's
// mid-critical-section words to that sibling's own interval: a replayed
// sibling then re-executes its critical section against state that never
// absorbed the partial writes, keeping lock-protected read-modify-writes
// exactly-once (see DESIGN.md, substitution contracts).
func (t *Thread) markWriter(pg *page, off, n int) {
	if !t.cl.trackWriters {
		return
	}
	ws := t.cl.cfg.WordSize
	if pg.writers == nil {
		pg.writers = make([]int16, t.cl.cfg.PageSize/ws)
		for i := range pg.writers {
			pg.writers[i] = -1
		}
	}
	for w := off / ws; w <= (off+n-1)/ws; w++ {
		pg.writers[w] = int16(t.id)
	}
}

// ReadU64 reads the 8-byte word at addr.
func (t *Thread) ReadU64(addr int) uint64 {
	t.safePoint()
	pg, off := t.pageOf(addr)
	t.readable(pg)
	t.charge(CompCompute, t.cl.cfg.ReadAccessNs)
	return binary.LittleEndian.Uint64(pg.working[off : off+8])
}

// WriteU64 writes the 8-byte word at addr.
func (t *Thread) WriteU64(addr int, v uint64) {
	t.safePoint()
	pg, off := t.pageOf(addr)
	t.writable(pg)
	// Mutate before charging: charge may yield, and a sibling's interval
	// commit during the yield would downgrade the page and lose a write
	// performed after it.
	t.track(pg, off, 8)
	binary.LittleEndian.PutUint64(pg.working[off:off+8], v)
	t.markWriter(pg, off, 8)
	t.charge(CompCompute, t.cl.cfg.WriteAccessNs)
}

// ReadF64 reads the float64 at addr.
func (t *Thread) ReadF64(addr int) float64 {
	return f64frombits(t.ReadU64(addr))
}

// WriteF64 writes the float64 at addr.
func (t *Thread) WriteF64(addr int, v float64) {
	t.WriteU64(addr, f64bits(v))
}

// ReadU32 reads the 4-byte word at addr.
func (t *Thread) ReadU32(addr int) uint32 {
	t.safePoint()
	pg, off := t.pageOf(addr)
	t.readable(pg)
	t.charge(CompCompute, t.cl.cfg.ReadAccessNs)
	return binary.LittleEndian.Uint32(pg.working[off : off+4])
}

// WriteU32 writes the 4-byte word at addr.
func (t *Thread) WriteU32(addr int, v uint32) {
	t.safePoint()
	pg, off := t.pageOf(addr)
	t.writable(pg)
	t.track(pg, off, 4)
	binary.LittleEndian.PutUint32(pg.working[off:off+4], v)
	t.markWriter(pg, off, 4)
	t.charge(CompCompute, t.cl.cfg.WriteAccessNs)
}

// ReadF64s reads len(dst) float64s starting at addr, batching fault checks
// and cost accounting per page.
func (t *Thread) ReadF64s(addr int, dst []float64) {
	t.safePoint()
	cfg := t.cl.cfg
	i := 0
	for i < len(dst) {
		pg, off := t.pageOf(addr + 8*i)
		t.readable(pg)
		n := (cfg.PageSize - off) / 8
		if n > len(dst)-i {
			n = len(dst) - i
		}
		for k := 0; k < n; k++ {
			dst[i+k] = f64frombits(binary.LittleEndian.Uint64(pg.working[off+8*k:]))
		}
		t.charge(CompCompute, int64(n)*cfg.ReadAccessNs)
		i += n
	}
}

// WriteF64s writes src starting at addr, batching per page.
func (t *Thread) WriteF64s(addr int, src []float64) {
	t.safePoint()
	cfg := t.cl.cfg
	i := 0
	for i < len(src) {
		pg, off := t.pageOf(addr + 8*i)
		t.writable(pg)
		n := (cfg.PageSize - off) / 8
		if n > len(src)-i {
			n = len(src) - i
		}
		t.track(pg, off, 8*n)
		for k := 0; k < n; k++ {
			binary.LittleEndian.PutUint64(pg.working[off+8*k:], f64bits(src[i+k]))
		}
		t.markWriter(pg, off, 8*n)
		t.charge(CompCompute, int64(n)*cfg.WriteAccessNs)
		i += n
	}
}

// ReadU32s reads len(dst) uint32s starting at addr.
func (t *Thread) ReadU32s(addr int, dst []uint32) {
	t.safePoint()
	cfg := t.cl.cfg
	i := 0
	for i < len(dst) {
		pg, off := t.pageOf(addr + 4*i)
		t.readable(pg)
		n := (cfg.PageSize - off) / 4
		if n > len(dst)-i {
			n = len(dst) - i
		}
		for k := 0; k < n; k++ {
			dst[i+k] = binary.LittleEndian.Uint32(pg.working[off+4*k:])
		}
		t.charge(CompCompute, int64(n)*cfg.ReadAccessNs)
		i += n
	}
}

// WriteU32s writes src starting at addr.
func (t *Thread) WriteU32s(addr int, src []uint32) {
	t.safePoint()
	cfg := t.cl.cfg
	i := 0
	for i < len(src) {
		pg, off := t.pageOf(addr + 4*i)
		t.writable(pg)
		n := (cfg.PageSize - off) / 4
		if n > len(src)-i {
			n = len(src) - i
		}
		t.track(pg, off, 4*n)
		for k := 0; k < n; k++ {
			binary.LittleEndian.PutUint32(pg.working[off+4*k:], src[i+k])
		}
		t.markWriter(pg, off, 4*n)
		t.charge(CompCompute, int64(n)*cfg.WriteAccessNs)
		i += n
	}
}

func f64bits(f float64) uint64 { return math.Float64bits(f) }

func f64frombits(b uint64) float64 { return math.Float64frombits(b) }
