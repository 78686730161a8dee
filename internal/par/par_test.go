package par

import (
	"runtime"
	"testing"
)

// TestMapOrderAndProgress: at every worker count the results come back
// in input order, and progress sees each result exactly once with done
// counting 1..n.
func TestMapOrderAndProgress(t *testing.T) {
	in := make([]int, 64)
	for i := range in {
		in[i] = i
	}
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0), 0} {
		var dones []int
		seen := make([]bool, len(in))
		out := Map(in, workers, func(x int) int { return 2 * x }, func(done int, r int) {
			dones = append(dones, done)
			seen[r/2] = true
		})
		for i, r := range out {
			if r != 2*i {
				t.Fatalf("workers %d: out[%d] = %d, want %d", workers, i, r, 2*i)
			}
		}
		if len(dones) != len(in) {
			t.Fatalf("workers %d: progress called %d times, want %d", workers, len(dones), len(in))
		}
		for i, d := range dones {
			if d != i+1 {
				t.Fatalf("workers %d: progress call %d had done %d", workers, i, d)
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("workers %d: progress never saw result %d", workers, i)
			}
		}
	}
	if out := Map(nil, 4, func(x int) int { return x }, nil); len(out) != 0 {
		t.Fatalf("empty input gave %v", out)
	}
}
