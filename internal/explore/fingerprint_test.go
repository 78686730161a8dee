package explore_test

import (
	"testing"

	"ftsvm/internal/explore"
	"ftsvm/internal/obs"
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
