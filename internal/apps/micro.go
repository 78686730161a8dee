package apps

import "ftsvm/internal/svm"

// The micro workloads exist for exhaustive failure-point exploration
// (internal/explore): small enough that every protocol-step boundary of
// a run can be swept with an injected failure in seconds, while still
// driving the protocol features whose recovery paths differ — lock
// transfer and single-writer diffs (Counter), barriers and multi-writer
// false sharing (FalseShare). Both follow the suite's contracts: all
// control state lives in the registered state struct, work is advanced
// past in the state before the synchronization operation that
// checkpoints it (so a post-failure replay performs each unit of work
// exactly once), and the sync CALL itself is re-executed by the replay
// (so a thread restored from a mid-barrier snapshot re-issues the open
// episode's call and its barrier numbering stays aligned — the same
// shape RunStages gives the SPLASH ports with its Arrived flag;
// FalseShare packs the equivalent into Iter's parity to keep the
// checkpoint blob, and with it every virtual time, unchanged).

// microState is the per-thread resumable state of both micro workloads.
type microState struct {
	Iter int
}

// Counter is a shared counter incremented under lock 0, iters times per
// thread, across pad-to-nodes pages (so every node is a primary home
// and any victim forces real rehoming work). Thread 0 verifies the
// total after the final barrier.
func Counter(s Shape, iters int) *Workload {
	l := newLayout(s.PageSize)
	ctr := l.alloc(8)
	pages := l.pages()
	if pages < s.Nodes {
		pages = s.Nodes
	}
	w := &Workload{Name: "counter", Pages: pages, Locks: 1}
	total := uint64(s.Threads() * iters)
	w.Body = func(t *svm.Thread) {
		st := &microState{}
		t.Setup(st)
		for st.Iter < iters {
			t.Acquire(0)
			v := t.ReadU64(ctr)
			t.Compute(200)
			t.WriteU64(ctr, v+1)
			st.Iter++
			t.Release(0)
		}
		t.Barrier()
		if t.ID() == 0 {
			if got := t.ReadU64(ctr); got != total {
				w.failf("counter = %d, want %d", got, total)
			}
		}
	}
	return w
}

// FalseShare packs one word per thread onto a single shared page: every
// barrier episode each thread increments its own word, so each interval
// multi-writes the page and the homes must merge concurrent diffs.
// Thread 0 verifies every slot after the final barrier.
func FalseShare(s Shape, iters int) *Workload {
	threads := s.Threads()
	l := newLayout(s.PageSize)
	slots := l.alloc(8 * threads)
	pages := l.pages()
	if pages < s.Nodes {
		pages = s.Nodes
	}
	w := &Workload{Name: "falseshare", Pages: pages, Locks: 0}
	w.Body = func(t *svm.Thread) {
		st := &microState{}
		t.Setup(st)
		mine := slots + 8*t.ID()
		// Iter counts half-steps: even = this iteration's increment is
		// still owed, odd = done but its barrier call is not. A replay
		// from a mid-barrier snapshot (odd Iter) skips the increment and
		// re-issues the suspended Barrier call, keeping the thread's
		// episode numbering aligned without widening the state blob.
		for st.Iter < 2*iters {
			if st.Iter%2 == 0 {
				v := t.ReadU64(mine)
				t.Compute(150)
				t.WriteU64(mine, v+1)
				st.Iter++
			}
			t.Barrier()
			st.Iter++
		}
		t.Barrier()
		if t.ID() == 0 {
			for i := 0; i < threads; i++ {
				if got := t.ReadU64(slots + 8*i); got != uint64(iters) {
					w.failf("slot %d = %d, want %d", i, got, iters)
				}
			}
		}
	}
	return w
}
