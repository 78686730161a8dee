package explore_test

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"ftsvm/internal/explore"
	"ftsvm/internal/obs"
	"ftsvm/internal/svm"
)

// pinnedBoundary is the injected schedule whose verdict is pinned below.
var pinnedBoundary = explore.Boundary{Kind: obs.KReleasePhase1, Node: 2, Occ: 3}

// TestFingerprintsPinned holds one recording and one injected verdict to
// the fingerprint strings the hash/fnv implementation printed for them.
// Stored verdicts are compared by fingerprint, so a change to the hashed
// layout (or to the event stream itself) must show up here, not in
// somebody's archive.
func TestFingerprintsPinned(t *testing.T) {
	tr := baseline(t)
	if want := "dd6434abdf1ff0fc"; tr.Fingerprint != want {
		t.Errorf("counter recording: fingerprint %s, pinned %s", tr.Fingerprint, want)
	}
	v := explore.Explore(counterSpec(), pinnedBoundary, tr.Budget())
	if !v.Pass || len(v.Injected) != 1 {
		t.Fatalf("%s: pass=%v injected=%v err=%q", pinnedBoundary.ID(), v.Pass, v.Injected, v.Err)
	}
	if want := "e66628c3c6078282"; v.Fingerprint != want {
		t.Errorf("%s: fingerprint %s, pinned %s", pinnedBoundary.ID(), v.Fingerprint, want)
	}
}

// TestExploreSinkAllocFree: once the scheduled kill has been delivered,
// ExploreSchedule's sink costs no allocation per recorded event. The
// workload's self-check runs with the sink still attached, so it is the
// one place a test can drive the real closure.
func TestExploreSinkAllocFree(t *testing.T) {
	sp := counterSpec()
	build := sp.New
	allocs := -1.0
	sp.New = func() (explore.Instance, error) {
		inst, err := build()
		if err != nil {
			return inst, err
		}
		check := inst.Check
		inst.Check = func() error {
			rec := inst.Cluster.FlightRecorder()
			e := obs.Event{Kind: obs.KMsgDeliver, Node: 1, Thread: -1, TimeNs: 1}
			allocs = testing.AllocsPerRun(1000, func() {
				e.Seq++
				rec.Record(e)
			})
			return check()
		}
		return inst, nil
	}
	v := explore.Explore(sp, pinnedBoundary, baseline(t).Budget())
	if !v.Pass || len(v.Injected) != 1 {
		t.Fatalf("%s: pass=%v injected=%v err=%q", pinnedBoundary.ID(), v.Pass, v.Injected, v.Err)
	}
	if allocs != 0 {
		t.Fatalf("explorer sink allocates %.0f objects per recorded event, want 0", allocs)
	}
}

// TestSweepVerdictsPinned holds the verdict stream of two sweeps to one
// digest: a 40-boundary sampled counter sweep, and the degree-3, 6-node
// counter pair sample (4 firsts x 4 seconds). The digest folds each
// verdict's schedule, pass, event count, virtual time, fingerprint and
// error. Everything a verdict is computed from — the recorder, the
// fingerprint's memory fold, the oracle's log and store, pair discovery
// and sampling — must leave it where it is. It moves only with a change
// to the event stream itself (ROADMAP item 6's event fold) or a fix of
// the post-failure protocol (item 1), and such a change lists the
// verdicts that moved.
func TestSweepVerdictsPinned(t *testing.T) {
	h := fnv.New64a()
	fold := func(vs []explore.Verdict) {
		for _, v := range vs {
			fmt.Fprintf(h, "%s|%t|%d|%d|%s|%s\n", strings.Join(v.Schedule, "+"), v.Pass, v.Events, v.TimeNs, v.Fingerprint, v.Err)
		}
	}
	tr := baseline(t)
	singles := explore.Sweep(counterSpec(), explore.Sample(tr.Boundaries, 40), tr.Budget(), 2, nil)
	if len(singles) != 40 {
		t.Fatalf("sampled sweep: %d verdicts, want 40", len(singles))
	}
	fold(singles)
	ptr := pairBaseline(t, "counter")
	_, pairs, err := explore.ExplorePairs(pairSpec("counter"), explore.Sample(ptr.Boundaries, 4), 4, ptr.Budget(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 12 { // the last first is the run's last event: no second follows it
		t.Fatalf("pair sample: %d verdicts, want 12", len(pairs))
	}
	fold(pairs)
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "b58e7885eeb64398"; got != want {
		t.Errorf("verdict digest %s, pinned %s", got, want)
	}
}

// TestReplayAllocBudget: one injected re-execution of counter on 4 nodes
// allocates its cluster and little else. It measured 298 456 B and 1 006
// objects while every run kept a 512-event ring per node, copied each page
// out to hash and check it, and cloned every committed diff into objects of
// its own; 190 KB and 874 objects once they stopped. The budgets are that
// plus about 10%. An ExploreSchedule run's recorder keeps no rings; only
// Replay, whose caller dumps them, keeps Spec.RingSize.
func TestReplayAllocBudget(t *testing.T) {
	const byteBudget, objectBudget = 210_000, 960
	sp := counterSpec()
	sp.RingSize = 64
	build := sp.New
	var last *svm.Cluster
	sp.New = func() (explore.Instance, error) {
		inst, err := build()
		last = inst.Cluster
		return inst, err
	}
	budget := baseline(t).Budget()
	if v := explore.Explore(sp, pinnedBoundary, budget); !v.Pass {
		t.Fatalf("%s: %s", pinnedBoundary.ID(), v.Err)
	}
	if ring := last.FlightRecorder().Node(0); ring != nil {
		t.Errorf("ExploreSchedule's recorder keeps a ring of %d events, want none", len(ring.Last(1<<20)))
	}
	v, rec := explore.Replay(sp, []explore.Boundary{pinnedBoundary}, budget)
	if !v.Pass {
		t.Fatalf("Replay %s: %s", pinnedBoundary.ID(), v.Err)
	}
	if ring := rec.Node(0); ring == nil || len(ring.Last(1<<20)) != sp.RingSize {
		t.Errorf("Replay's recorder keeps ring %v for node 0, want the last Spec.RingSize = %d events", ring, sp.RingSize)
	}

	sp.New = build
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if v := explore.Explore(sp, pinnedBoundary, budget); !v.Pass {
			t.Fatalf("%s: %s", pinnedBoundary.ID(), v.Err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes, objects := (after.TotalAlloc-before.TotalAlloc)/runs, (after.Mallocs-before.Mallocs)/runs
	t.Logf("one re-execution: %d B, %d objects", bytes, objects)
	if !raceEnabled && (bytes > byteBudget || objects > objectBudget) {
		t.Fatalf("one re-execution allocates %d B and %d objects, budget %d B and %d objects", bytes, objects, byteBudget, objectBudget)
	}
}

// BenchmarkExploreSchedule is one injected re-execution of counter on 4
// nodes: cluster construction, the run under recorder, auditor and
// oracle, and the verdict checks — the per-layer number next to the
// ledger's explore.ms_per_boundary.
func BenchmarkExploreSchedule(b *testing.B) {
	sp := counterSpec()
	budget := baseline(b).Budget()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := explore.Explore(sp, pinnedBoundary, budget); !v.Pass {
			b.Fatalf("%s: %s", pinnedBoundary.ID(), v.Err)
		}
	}
}
