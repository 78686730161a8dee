package svm

import (
	"fmt"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
)

// multiWriterBody has each thread write its own stripe of every page plus
// bump a shared per-page counter word, so small pages see one writer per
// page and large pages see four concurrent writers merging through
// word diffs — the page-size axis of the false-sharing machinery.
func multiWriterBody(pages, iters int, pageSize int) func(*Thread) {
	return func(t *Thread) {
		st := &counterState{}
		t.Setup(st)
		for st.Iter < iters {
			t.Acquire(0)
			for p := 0; p < pages; p++ {
				base := p * pageSize
				slot := base + 64 + t.ID()*8
				t.WriteU64(slot, t.ReadU64(slot)+1)
				t.WriteU64(base, t.ReadU64(base)+1)
			}
			st.Iter++
			t.Release(0)
		}
		t.Barrier()
	}
}

// TestPageSizeVariants runs both protocols at 1K, 4K and 16K pages and
// checks exactness of every slot: the protocol must be correct at any
// coherence granularity, not just the default 4096.
func TestPageSizeVariants(t *testing.T) {
	const pages, iters, nodes = 4, 6, 4
	for _, size := range []int{1024, 4096, 16384} {
		for _, mode := range []Mode{ModeBase, ModeFT} {
			t.Run(fmt.Sprintf("%s/%d", mode, size), func(t *testing.T) {
				cfg := model.Default()
				cfg.Nodes = nodes
				cfg.PageSize = size
				cl, err := New(Options{
					Config: cfg, Mode: mode, Pages: pages, Locks: 1,
					Body: multiWriterBody(pages, iters, size),
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := cl.Run(); err != nil {
					t.Fatal(err)
				}
				if err := cl.Verify(nil); err != nil {
					t.Fatal(err)
				}
				for p := 0; p < pages; p++ {
					if got := cl.PeekU64(p * size); got != nodes*iters {
						t.Fatalf("page %d shared word = %d, want %d", p, got, nodes*iters)
					}
					for tid := 0; tid < nodes; tid++ {
						if got := cl.PeekU64(p*size + 64 + tid*8); got != iters {
							t.Fatalf("page %d stripe %d = %d, want %d", p, tid, got, iters)
						}
					}
				}
			})
		}
	}
}

// TestPageSizeFailure repeats the sweep's key failure window (phase 1) at
// a non-default page size: recovery's diff undo and replica reconcile
// must not bake in the 4096 constant anywhere.
func TestPageSizeFailure(t *testing.T) {
	for _, size := range []int{1024, 16384} {
		t.Run(fmt.Sprintf("%d", size), func(t *testing.T) {
			cfg := model.Default()
			cfg.Nodes = 4
			cfg.PageSize = size
			const iters = 8
			cl, err := New(Options{
				Config: cfg, Mode: ModeFT, Pages: 4, Locks: 1,
				Body: multiWriterBody(4, iters, size),
			})
			if err != nil {
				t.Fatal(err)
			}
			fired := killOn(cl, obs.KReleasePhase1, 2, 3)
			if err := cl.Run(); err != nil {
				t.Fatal(err)
			}
			if !*fired {
				t.Skip("kill point never reached")
			}
			if err := cl.Verify(nil); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < 4; p++ {
				if got := cl.PeekU64(p * size); got != 4*iters {
					t.Fatalf("page %d shared word = %d, want %d", p, got, 4*iters)
				}
			}
		})
	}
}
