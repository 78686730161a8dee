package apps

import (
	"slices"
	"testing"
	"testing/quick"
)

// Property: splitRange tiles [0,n) exactly — contiguous, non-overlapping,
// covering.
func TestSplitRangeProperty(t *testing.T) {
	f := func(nRaw, partsRaw uint8) bool {
		n := int(nRaw)
		parts := int(partsRaw%16) + 1
		prevHi := 0
		for i := 0; i < parts; i++ {
			lo, hi := splitRange(n, parts, i)
			if lo != prevHi || hi < lo {
				return false
			}
			prevHi = hi
		}
		return prevHi == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitRangeBalance(t *testing.T) {
	// Chunk sizes differ by at most one.
	for _, n := range []int{1, 7, 64, 1000} {
		for _, parts := range []int{1, 3, 8} {
			min, max := n, 0
			for i := 0; i < parts; i++ {
				lo, hi := splitRange(n, parts, i)
				if hi-lo < min {
					min = hi - lo
				}
				if hi-lo > max {
					max = hi - lo
				}
			}
			if max-min > 1 {
				t.Fatalf("splitRange(%d,%d) unbalanced: %d..%d", n, parts, min, max)
			}
		}
	}
}

func TestPrngDeterministicAndBounded(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		x, y := a.Float(), b.Float()
		if x != y {
			t.Fatal("Rand not deterministic")
		}
		if x < 0 || x >= 1 {
			t.Fatalf("Rand.Float out of range: %g", x)
		}
	}
	if NewRand(0).Next() != NewRand(0).Next() {
		t.Fatal("zero seed not normalized deterministically")
	}
}

func TestLayoutPageAlignment(t *testing.T) {
	l := newLayout(4096)
	a := l.alloc(100)
	b := l.alloc(5000)
	c := l.alloc(1)
	if a != 0 || b != 4096 || c != 4096*3 {
		t.Fatalf("alloc addresses: %d %d %d", a, b, c)
	}
	if l.pages() != 4 {
		t.Fatalf("pages = %d", l.pages())
	}
	if l.pageOf(b+4097) != 2 {
		t.Fatalf("pageOf = %d", l.pageOf(b+4097))
	}
}

func TestShapeHelpers(t *testing.T) {
	s := Shape{Nodes: 4, ThreadsPerNode: 2, PageSize: 4096}
	if s.Threads() != 8 {
		t.Fatalf("Threads = %d", s.Threads())
	}
	if s.NodeOfThread(0) != 0 || s.NodeOfThread(1) != 0 || s.NodeOfThread(7) != 3 {
		t.Fatal("NodeOfThread wrong")
	}
}

func TestWorkloadFailFirstWins(t *testing.T) {
	w := &Workload{Name: "x"}
	if w.Err() != nil {
		t.Fatal("fresh workload has error")
	}
	w.failf("first %d", 1)
	w.failf("second %d", 2)
	if got := w.Err().Error(); got != "x: first 1" {
		t.Fatalf("Err = %q", got)
	}
	w.Fail(nil) // no-op
	if w.Err().Error() != "x: first 1" {
		t.Fatal("nil Fail overwrote error")
	}
}

func TestTouchedCellsOwnFirstNoDuplicates(t *testing.T) {
	partners := [][]int{{1, 2}, {2, 3}, {3}, {0}}
	got := touchedCells(1, 3, partners) // own cells 1,2
	seen := map[int]bool{}
	for _, c := range got {
		if seen[c] {
			t.Fatalf("duplicate cell %d in %v", c, got)
		}
		seen[c] = true
	}
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("own cells not first: %v", got)
	}
	if !seen[3] {
		t.Fatalf("forward neighbor missing: %v", got)
	}
}

// TestLayoutHomes: home marks the pages of from, from+pageSize, ...
// below to; a later call wins; an unmarked page, including one allocated
// after the first home call, stays on node 0.
func TestLayoutHomes(t *testing.T) {
	l := newLayout(4096)
	a := l.alloc(3 * 4096)
	l.home(a+100, a+2*4096+100, 2) // pages 0 and 1: a+2*4096+100 is not below to
	l.home(a+4096, a+4097, 3)      // page 1 again
	b := l.alloc(4096)
	l.alloc(4096)
	l.home(b, b+4096, 1)
	got := []int{}
	for p := 0; p < l.pages(); p++ {
		got = append(got, l.homeOf(p))
	}
	if want := []int{2, 3, 0, 1, 0}; !slices.Equal(got, want) {
		t.Fatalf("homes %v, want %v", got, want)
	}
}
