package explore_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"ftsvm/internal/explore"
	"ftsvm/internal/harness"
	"ftsvm/internal/obs"
)

func counterSpec() explore.Spec {
	return harness.ExploreSpec(harness.Config{
		App: "counter", Size: harness.SizeSmall, Nodes: 4, ThreadsPerNode: 1,
	})
}

// The baseline recording is shared across tests and fuzz iterations: it
// is pure input data (boundary coordinates + budget), never mutated.
var (
	baseOnce sync.Once
	baseTr   *explore.Trace
	baseErr  error
)

func baseline(t testing.TB) *explore.Trace {
	t.Helper()
	baseOnce.Do(func() { baseTr, baseErr = explore.Record(counterSpec()) })
	if baseErr != nil {
		t.Fatalf("baseline recording: %v", baseErr)
	}
	return baseTr
}

func TestParseIDRoundTrip(t *testing.T) {
	for _, b := range []explore.Boundary{
		{Kind: obs.KReleasePhase1, Node: 2, Occ: 3},
		{Kind: obs.KMsgDeliver, Node: 0, Occ: 1},
		{Kind: obs.KBarrierArrive, Node: 7, Occ: 12},
	} {
		got, err := explore.ParseID(b.ID())
		if err != nil || got != b {
			t.Fatalf("ParseID(%q) = %v, %v; want %v", b.ID(), got, err, b)
		}
	}
	for _, bad := range []string{
		"nonsense", "release.phase1@x2#3", "bogus.kind@n1#2",
		"msg.send@n1#0", "msg.send@n1#", "@n1#1",
	} {
		if _, err := explore.ParseID(bad); err == nil {
			t.Fatalf("ParseID(%q) accepted a malformed id", bad)
		}
	}
}

// TestRecordEnumeratesBoundaries: a failure-free recording run must
// enumerate a rich boundary set spanning the protocol's step kinds, and
// recording must be deterministic — the explorer's premise is that a
// second instance replays the identical event stream.
func TestRecordEnumeratesBoundaries(t *testing.T) {
	tr := baseline(t)
	if len(tr.Boundaries) < 500 {
		t.Fatalf("recorded %d boundaries, want a rich set (>= 500)", len(tr.Boundaries))
	}
	hist := explore.KindHistogram(tr.Boundaries)
	for _, kind := range []string{"msg.send", "msg.deliver", "lock.set", "release.phase1", "barrier.arrive"} {
		if !strings.Contains(hist, kind) {
			t.Fatalf("histogram %q missing kind %q", hist, kind)
		}
	}
	for _, b := range tr.Boundaries {
		if got, err := explore.ParseID(b.ID()); err != nil || got != b {
			t.Fatalf("boundary %v does not round-trip: %v %v", b, got, err)
		}
	}
	tr2, err := explore.Record(counterSpec())
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Fingerprint != tr.Fingerprint || len(tr2.Boundaries) != len(tr.Boundaries) {
		t.Fatalf("recording not deterministic: %s/%d vs %s/%d",
			tr.Fingerprint, len(tr.Boundaries), tr2.Fingerprint, len(tr2.Boundaries))
	}
}

// TestSweepSampledBoundariesPass: an evenly sampled sweep must pass the
// auditor, the workload self-check, the replica/availability invariant,
// and the consistency oracle at every point.
func TestSweepSampledBoundariesPass(t *testing.T) {
	tr := baseline(t)
	bs := explore.Sample(tr.Boundaries, 16)
	vs := explore.Sweep(counterSpec(), bs, tr.Budget(), 4, nil)
	for i, v := range vs {
		if !v.Pass {
			t.Errorf("boundary %s failed: %s", bs[i].ID(), v.Err)
		}
		if got := len(v.Injected) + len(v.Refused); got != 1 {
			t.Errorf("boundary %s: injected+refused = %d, want 1", bs[i].ID(), got)
		}
		if v.Fingerprint == "" {
			t.Errorf("boundary %s: empty fingerprint", bs[i].ID())
		}
	}
}

// TestShardPartition: the i/n shards must partition the boundary list —
// every boundary in exactly one shard, order preserved within each —
// so n machines sweeping shards 0..n-1 together cover one full sweep.
func TestShardPartition(t *testing.T) {
	tr := baseline(t)
	bs := tr.Boundaries
	for _, n := range []int{1, 3, 4, 7} {
		seen := make(map[string]int)
		for i := 0; i < n; i++ {
			sh := explore.Shard(bs, i, n)
			last := -1
			for _, b := range sh {
				seen[b.ID()]++
				idx := -1
				for k := range bs {
					if bs[k] == b {
						idx = k
						break
					}
				}
				if idx <= last {
					t.Fatalf("n=%d shard %d: boundary %s out of input order", n, i, b.ID())
				}
				last = idx
			}
		}
		if len(seen) != len(bs) {
			t.Fatalf("n=%d: shards cover %d of %d boundaries", n, len(seen), len(bs))
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: boundary %s appears in %d shards", n, id, c)
			}
		}
	}
}

// TestVerdictReproducible: the reproduction contract — (app, boundary,
// seed) fully determines the run, down to a bit-identical fingerprint.
func TestVerdictReproducible(t *testing.T) {
	tr := baseline(t)
	b := tr.Boundaries[len(tr.Boundaries)/2]
	v1 := explore.Explore(counterSpec(), b, tr.Budget())
	v2 := explore.Explore(counterSpec(), b, tr.Budget())
	if !v1.Pass {
		t.Fatalf("boundary %s failed: %s", b.ID(), v1.Err)
	}
	if v1.Fingerprint != v2.Fingerprint {
		t.Fatalf("fingerprints diverge for %s: %s vs %s", b.ID(), v1.Fingerprint, v2.Fingerprint)
	}
}

// TestSecondFailureDuringRecoveryRefused pins the single-failure model
// (§4.1): a second kill whose boundary fires while the first failure's
// recovery episode is still pending must be refused — recorded, never
// injected — rather than silently explored as a schedule the protocol
// does not claim to survive.
func TestSecondFailureDuringRecoveryRefused(t *testing.T) {
	tr := baseline(t)
	var first explore.Boundary
	for _, b := range tr.Boundaries {
		if b.Kind == obs.KReleasePhase1 && b.Node == 1 {
			first = b
			break
		}
	}
	if first.Occ == 0 {
		t.Fatal("no release.phase1 boundary on node 1 in the baseline")
	}

	// Discovery run: inject the first kill by hand and note the first
	// boundary on a live node that fires while recovery is pending. The
	// injection run replays the identical prefix, so the coordinate is
	// valid there too.
	sp := counterSpec()
	inst, err := sp.New()
	if err != nil {
		t.Fatal(err)
	}
	cl := inst.Cluster
	rec := cl.EnableFlightRecorder(64)
	cl.EnableWireTrace()
	type key struct {
		kind obs.Kind
		node int32
	}
	occ := map[key]int64{}
	var second explore.Boundary
	injected := false
	rec.SetSink(func(e obs.Event) {
		k := key{e.Kind, e.Node}
		occ[k]++
		if !injected && e.Kind == first.Kind && e.Node == first.Node && occ[k] == first.Occ {
			injected = true
			cl.KillNode(int(e.Node))
			return
		}
		if injected && second.Occ == 0 && cl.RecoveryPending() &&
			e.Node != first.Node && !cl.NodeDead(int(e.Node)) {
			second = explore.Boundary{Kind: e.Kind, Node: e.Node, Occ: occ[k]}
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatalf("discovery run: %v", err)
	}
	if !injected || second.Occ == 0 {
		t.Fatalf("discovery found no mid-recovery boundary (injected=%v)", injected)
	}

	v := explore.ExploreSchedule(counterSpec(), []explore.Boundary{first, second}, tr.Budget())
	if !v.Pass {
		t.Fatalf("schedule [%s %s] failed: %s", first.ID(), second.ID(), v.Err)
	}
	if len(v.Injected) != 1 || v.Injected[0] != first.ID() {
		t.Fatalf("injected = %v, want [%s]", v.Injected, first.ID())
	}
	if len(v.Refused) != 1 || v.Refused[0] != second.ID() {
		t.Fatalf("refused = %v, want [%s]", v.Refused, second.ID())
	}
}

// TestUndetectedFailureHeldToAvailability: a node killed after its last
// protocol obligation is never probed — no recovery runs, the workload
// completes anyway. The verdict must still pass, held to the
// availability invariant instead of the post-recovery replica invariant.
func TestUndetectedFailureHeldToAvailability(t *testing.T) {
	tr := baseline(t)
	sp := counterSpec()
	for i := len(tr.Boundaries) - 1; i >= len(tr.Boundaries)-40 && i >= 0; i-- {
		b := tr.Boundaries[i]
		v := explore.Explore(sp, b, tr.Budget())
		if len(v.Injected) == 1 && v.Recoveries == 0 {
			if !v.Pass {
				t.Fatalf("undetected failure at %s failed availability check: %s", b.ID(), v.Err)
			}
			return
		}
	}
	t.Fatal("no undetected-failure outcome among the last 40 boundaries")
}

// TestRecordRunsTheFullCheck: a recording ends in the check an injection
// run ends in, not in the workload's self-check alone. The self-check
// here passes but, as a stand-in for a replica the protocol let drift,
// flips one byte of a primary's committed frame (which only a test may
// write): the replica audit must fail the recording.
func TestRecordRunsTheFullCheck(t *testing.T) {
	sp := counterSpec()
	build := sp.New
	sp.New = func() (explore.Instance, error) {
		inst, err := build()
		if err != nil {
			return inst, err
		}
		cl := inst.Cluster
		inst.Check = func() error {
			for p := 0; p < cl.NumPages(); p++ {
				if f := cl.Frame(p, false); f != nil {
					f[0] ^= 1
					return nil
				}
			}
			return errors.New("no page was ever written")
		}
		return inst, nil
	}
	_, err := explore.Record(sp)
	if err == nil || !strings.Contains(err.Error(), "baseline check: page") || !strings.Contains(err.Error(), "replicas diverge") {
		t.Fatalf("Record = %v, want the replica audit to fail the baseline check", err)
	}
}
