// Package apps implements the paper's application suite: Go
// re-implementations of the six SPLASH-2 kernels' sharing patterns (FFT,
// LU-contiguous, Water-Nsquared, Water-SpatialFL, RadixLocal, Volrend)
// against the SVM API.
//
// Each workload is:
//
//   - deterministic: same inputs, same results, independent of protocol
//     mode — so base and extended runs are comparable and failure replays
//     reproduce the original values;
//   - self-verifying: after the final barrier, thread 0 checks the result
//     (closed-form outputs, residuals, sortedness, or reference
//     checksums) and records any error;
//   - checkpoint-resumable: all control state (phase counters, loop
//     indices, private scratch) lives in the thread's registered state
//     struct, advanced before each Release so a post-failure replay
//     continues exactly once.
package apps

import (
	"fmt"
	"sync"

	"ftsvm/internal/svm"
)

// Workload is one runnable application: the shared-memory shape plus the
// thread body.
type Workload struct {
	Name  string
	Pages int
	Locks int
	// HomeAssign places pages on nodes; nil means block distribution.
	HomeAssign func(page int) int
	Body       func(t *svm.Thread)

	// failure is the first verification error. Thread bodies on different
	// nodes run concurrently under the parallel engine, so the field is
	// mutex-guarded; verification is the only host-shared state a
	// workload body touches.
	mu      sync.Mutex
	failure error
}

// Fail records a verification failure (first one wins).
func (w *Workload) Fail(err error) {
	if err == nil {
		return
	}
	w.mu.Lock()
	if w.failure == nil {
		w.failure = err
	}
	w.mu.Unlock()
}

// Err returns the recorded verification failure, if any.
func (w *Workload) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failure
}

// failf formats and records a verification failure.
func (w *Workload) failf(format string, args ...any) {
	w.Fail(fmt.Errorf("%s: "+format, append([]any{w.Name}, args...)...))
}

// layout is a trivial bump allocator for laying shared arrays out in the
// page-grained address space. It also keeps the workload's page-to-home
// table: home places pages, and homeOf, the table's lookup, is the
// workload's HomeAssign.
type layout struct {
	pageSize int
	next     int
	// homes maps page to home node, 0 where home placed nothing. The
	// first home call makes it, one entry per page allocated so far, so
	// a workload that allocates before it places pays one allocation;
	// from then on alloc extends it.
	homes []int
}

func newLayout(pageSize int) *layout { return &layout{pageSize: pageSize} }

// alloc reserves size bytes starting on a fresh page and returns the base
// address.
func (l *layout) alloc(size int) int {
	base := l.next
	pages := (size + l.pageSize - 1) / l.pageSize
	l.next += pages * l.pageSize
	if l.homes != nil {
		l.homes = append(l.homes, make([]int, pages)...)
	}
	return base
}

// pages returns the total number of pages allocated.
func (l *layout) pages() int { return l.next / l.pageSize }

// pageOf returns the page index containing address a.
func (l *layout) pageOf(a int) int { return a / l.pageSize }

// home places on node the pages of from, from+pageSize, ... below to. A
// later call wins on a page both mark.
func (l *layout) home(from, to, node int) {
	if l.homes == nil {
		l.homes = make([]int, l.pages())
	}
	for a := from; a < to; a += l.pageSize {
		l.homes[l.pageOf(a)] = node
	}
}

// homeOf returns page p's home node. Its value receiver makes the method
// value l.homeOf, a Workload's HomeAssign, bind a copy of the finished
// layout, so the layout itself need not move to the heap.
func (l layout) homeOf(p int) int { return l.homes[p] }

// splitRange divides [0,n) into nparts contiguous chunks and returns the
// bounds of part i.
func splitRange(n, nparts, i int) (lo, hi int) {
	lo = n * i / nparts
	hi = n * (i + 1) / nparts
	return
}

// RunStages drives a barrier-phased computation with exact-once replay.
// Stage k runs its body, sets the arrived flag, passes one global
// barrier, then advances the stage counter; cur and arrived live in the
// thread's checkpointed state. A restored thread therefore:
//
//   - re-runs at most its current stage's body (and only if the
//     checkpoint preceded the body's completion — a checkpoint taken
//     inside the barrier has arrived=true, so a rolled-forward stage
//     whose writes already propagated is never re-applied, which matters
//     for non-idempotent bodies like LU's block updates);
//   - performs exactly the barrier arrivals the cluster still expects
//     (re-running the whole body would overshoot the global count).
//
// Bodies checkpointed mid-stage by their own lock releases must be
// re-entrant via their own progress fields (e.g. a flush index advanced
// before each Release). internal/serve's workload follows the same
// discipline.
func RunStages(t *svm.Thread, cur *int, arrived *bool, total int, body func(stage int)) {
	for *cur < total {
		if !*arrived {
			body(*cur)
			*arrived = true
		}
		t.Barrier()
		*arrived = false
		*cur++
	}
}

// Rand is the workloads' small deterministic generator (xorshift64*):
// reproducible inputs without math/rand state in any checkpoint.
// internal/serve draws its arrival process and request mix from it too.
type Rand struct{ s uint64 }

// NewRand seeds a generator; seed 0 is remapped to a fixed non-zero seed.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{s: seed}
}

// Next returns the next 64-bit draw.
func (r *Rand) Next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Float returns a deterministic value in [0, 1).
func (r *Rand) Float() float64 {
	return float64(r.Next()>>11) / float64(1<<53)
}
