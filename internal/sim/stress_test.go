//go:build stress

package sim

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// Stress harness for parallel-engine determinism under host load. It was
// written to chase a 1-2 µs drift of the paper grid at four workers,
// invisible to -race and to uncontended repeats; that drift turned out
// to be harness.RunGrid goroutines racing for gob type ids, not the
// engine (DESIGN §14), but the window this file manufactures is the one
// a real lane race would need:
//
//   - CPU contention: busy-spinner goroutines oversubscribe every P, so
//     lane workers get descheduled mid-window at arbitrary points;
//   - same-timestamp collisions: the workload advances in coarse
//     quanta, so cross-lane events tie on t constantly and the commit
//     pass's (t, seq) seating order actually matters;
//   - RNG suspension: every step draws, exercising the feed-and-resume
//     path where a lane re-enters its window on the commit goroutine.
//
// Each repeat compares the full observable trace against a serial
// reference; the commit pass's always-on order assertion (lane.go)
// additionally turns any out-of-order seating into a loud panic with
// coordinates rather than a silent µs drift.
//
// Run with:
//
//	go test -tags stress ./internal/sim/ -run Stress -v
//
// Tunables (env): SIM_STRESS_REPEATS (default 30), SIM_STRESS_CONC
// (concurrent engines per batch, default 4), SIM_STRESS_GOMAXPROCS
// (default: runtime.NumCPU, pinned for the whole test).
func TestParallelCommitStress(t *testing.T) {
	repeats := envInt("SIM_STRESS_REPEATS", 30)
	conc := envInt("SIM_STRESS_CONC", 4)
	procs := envInt("SIM_STRESS_GOMAXPROCS", runtime.NumCPU())
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)

	// Oversubscribe every P with spinners so lane workers are preempted
	// mid-window. The atomic load keeps the loop from being optimized
	// away; stop is checked so the spinners exit with the test.
	var stop atomic.Bool
	defer stop.Store(true)
	for i := 0; i < 2*procs; i++ {
		go func() {
			var sink uint64
			for !stop.Load() {
				sink += atomic.LoadUint64(&spinFuel)
			}
			atomic.AddUint64(&spinFuel, sink&1)
		}()
	}

	const nodes, steps = 6, 80
	for seed := int64(1); seed <= 3; seed++ {
		want := stressApp(t, 0, nodes, steps, seed)
		for batch := 0; batch < (repeats+conc-1)/conc; batch++ {
			var wg sync.WaitGroup
			traces := make([][]string, conc)
			for c := 0; c < conc; c++ {
				c := c
				wg.Add(1)
				go func() {
					defer wg.Done()
					traces[c] = stressApp(t, 4, nodes, steps, seed)
				}()
			}
			wg.Wait()
			for c, got := range traces {
				if d := firstDiff(want, got); d >= 0 {
					t.Fatalf("seed=%d batch=%d engine=%d: trace diverges at line %d:\n  serial:   %s\n  parallel: %s",
						seed, batch, c, d, line(want, d), line(got, d))
				}
			}
		}
	}
}

var spinFuel uint64

// stressApp is laneApp's contention-shaped sibling: advances are
// multiples of a coarse quantum so cross-lane events tie on t, every
// step draws twice (destination and payload delay), and posts land
// exactly at multiples of the wire latency. Observables are lane-local
// logs plus the final engine state and a post-run draw, as in laneApp.
func stressApp(t *testing.T, workers int, nodes, steps int, seed int64) []string {
	t.Helper()
	const L = 8000
	const quantum = 2000
	e := New(seed)
	for i := 0; i < nodes; i++ {
		e.Lane(i)
	}
	if workers > 0 {
		e.Parallel(workers, L)
	}
	perNode := make([][]string, nodes)
	inbox := make([]int, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		ln := e.Lane(i)
		e.SpawnOn(ln, fmt.Sprintf("n%d", i), func(p *Proc) {
			for s := 0; s < steps; s++ {
				p.Advance(quantum * (p.Int63n(3) + 1))
				dst := (i + 1 + int(p.Int63n(int64(nodes-1)))) % nodes
				to := e.Lane(dst)
				ln.Post(to, L+quantum*p.Int63n(2), func() {
					inbox[dst]++
				})
				perNode[i] = append(perNode[i], fmt.Sprintf("s%d t=%d -> n%d", s, p.Now(), dst))
			}
			perNode[i] = append(perNode[i], fmt.Sprintf("done t=%d", p.Now()))
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("run (workers=%d): %v", workers, err)
	}
	var trace []string
	for i, lines := range perNode {
		for _, l := range lines {
			trace = append(trace, fmt.Sprintf("n%d %s", i, l))
		}
	}
	trace = append(trace, fmt.Sprintf("executed=%d rand=%d inbox=%v", e.Events(), e.Rand().Int63(), inbox))
	return trace
}

func firstDiff(a, b []string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

func line(tr []string, i int) string {
	if i < len(tr) {
		return tr[i]
	}
	return "<missing>"
}

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}
