package svm

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
)

// The dirty-chunk tracked diffing path (partial twins, ComputeTracked,
// dense-page adaptation) must be a pure host-side optimization: every
// protocol-visible quantity — virtual time, message and byte counts, diff
// contents, final memory — must be identical to a run with FullTwins
// (whole-page twins, full diff scans). These tests run the same
// deterministic workload both ways and compare outcomes, covering the
// sparse lock-grained pattern, false sharing across invalidation (the
// dirtyTwin stash), SMP write-deferral, and failure recovery.

// diffPair runs body under both twin strategies and returns the clusters.
func diffPair(t *testing.T, mode Mode, nodes, tpn, pages, locks int, body func(*Thread), arm func(*Cluster)) (tracked, full *Cluster) {
	t.Helper()
	run := func(fullTwins bool) *Cluster {
		cfg := model.Default()
		cfg.Nodes = nodes
		cfg.ThreadsPerNode = tpn
		cl, err := New(Options{
			Config: cfg, Mode: mode, Pages: pages, Locks: locks,
			Body: body, FullTwins: fullTwins,
		})
		if err != nil {
			t.Fatal(err)
		}
		if arm != nil {
			arm(cl)
		}
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		if err := cl.Verify(nil); err != nil {
			t.Fatal(err)
		}
		return cl
	}
	return run(false), run(true)
}

// assertSameOutcome compares everything the simulated machine can observe.
// TwinBytesCopied is excluded: copying fewer twin bytes on the host is the
// entire point of partial twins.
func assertSameOutcome(t *testing.T, tracked, full *Cluster, pages int) {
	t.Helper()
	if got, want := tracked.Engine().Now(), full.Engine().Now(); got != want {
		t.Errorf("virtual end time: tracked %d, fulltwins %d", got, want)
	}
	st, sf := tracked.ProtoStats(), full.ProtoStats()
	st.TwinBytesCopied, sf.TwinBytesCopied = 0, 0
	if st != sf {
		t.Errorf("protocol stats diverged:\ntracked:   %+v\nfulltwins: %+v", st, sf)
	}
	psz := tracked.cfg.PageSize
	for p := 0; p < pages; p++ {
		if !bytes.Equal(tracked.PeekBytes(p*psz, psz), full.PeekBytes(p*psz, psz)) {
			t.Errorf("page %d contents diverged", p)
		}
	}
}

func TestTrackedMatchesFullTwinsCounter(t *testing.T) {
	for _, mode := range []Mode{ModeBase, ModeFT} {
		t.Run(mode.String(), func(t *testing.T) {
			tracked, full := diffPair(t, mode, 4, 1, 8, 1, counterBody(8), nil)
			assertSameOutcome(t, tracked, full, 8)
			checkCounter(t, tracked, 32)
		})
	}
}

// falseShareState drives a workload mixing a densely rewritten page with
// word-grained false sharing on another: concurrent writers dirty page 0
// at distinct offsets with no lock protecting it, so write notices arrive
// while the page is still dirty and the invalidation stashes the partial
// twin (dirtyTwin/stashMask) for the fetch-merge replay.
type falseShareState struct {
	Iter int
}

func falseShareBody(iters int) func(*Thread) {
	return func(th *Thread) {
		st := &falseShareState{}
		th.Setup(st)
		for st.Iter < iters {
			// Sparse: each thread's private slot on the shared page.
			th.WriteU64(th.ID()*64, uint64(st.Iter+1))
			// Dense: every thread rewrites most of page 1 under the lock,
			// exercising the dense-page full-twin adaptation.
			th.Acquire(0)
			base := th.cl.cfg.PageSize
			for off := 0; off < th.cl.cfg.PageSize; off += 8 {
				th.WriteU64(base+off, uint64(th.ID()<<32)|uint64(off))
			}
			st.Iter++
			th.Release(0)
			th.Barrier()
		}
		th.Barrier()
	}
}

func TestTrackedMatchesFullTwinsFalseSharing(t *testing.T) {
	for _, mode := range []Mode{ModeBase, ModeFT} {
		t.Run(mode.String(), func(t *testing.T) {
			tracked, full := diffPair(t, mode, 4, 1, 8, 1, falseShareBody(4), nil)
			assertSameOutcome(t, tracked, full, 8)
		})
	}
}

// SMP: two threads per node activates per-word writer tracking and the
// mid-critical-section write deferral, both of which read partial twins.
func TestTrackedMatchesFullTwinsSMP(t *testing.T) {
	tracked, full := diffPair(t, ModeFT, 4, 2, 8, 2, counterBody(6), nil)
	assertSameOutcome(t, tracked, full, 8)
	checkCounter(t, tracked, 48)
}

// Failure: recovery rebuilds replicas from pre-images (preImage reads the
// partial twin) and replays stashed diffs; the outcome must not depend on
// the twin strategy.
func TestTrackedMatchesFullTwinsFailure(t *testing.T) {
	arm := func(cl *Cluster) {
		cl.Engine().At(3_000_000, func() { cl.KillNode(2) })
	}
	tracked, full := diffPair(t, ModeFT, 4, 1, 8, 1, counterBody(12), arm)
	assertSameOutcome(t, tracked, full, 8)
}

// smpCounterBody is counterBody for two threads per node with one lock
// per sibling: thread i increments the counter on page i%2 under lock
// i%2, so one sibling commits while the other is inside its critical
// section, and the commit defers the sibling's words (splitDeferred).
func smpCounterBody(iters int) func(*Thread) {
	return func(t *Thread) {
		st := &counterState{}
		t.Setup(st)
		l := t.ID() % 2
		addr := l * t.cl.cfg.PageSize
		for st.Iter < iters {
			t.Acquire(l)
			v := t.ReadU64(addr)
			t.Compute(200)
			t.WriteU64(addr, v+1)
			st.Iter++
			t.Release(l)
		}
		t.Barrier()
	}
}

// TestReleasePathAllocBudget is the allocation-regression gate for the
// steady-state release path. It measures the marginal host allocations per
// additional lock-release iteration (long run minus short run, so cluster
// construction and first-touch costs cancel) and fails if the figure
// regresses past its ceiling, in whole objects per release. Every leg
// costs 0, alone and after the package's other tests: what is left is
// storage that grows with the run, about half an object per release in
// the raw difference, below the whole-object floor. The extended leg was
// 1 alone and 3 after the
// other tests while the lock handover allocated its release message, each
// new vector-time snapshot its own vector and each read fault its
// de-duplication future; 2 and 4 while each checkpoint allocated its blob
// and each point-A deposit its envelope, now the sender's checkpoint
// buffers and the backups' store slots; 14 while every release allocated
// its diffs, pre-images and diff messages — now in the thread's release
// scratch — and each interval its page list; 31 while each release also
// cloned the node's vector time for the lock homes, the checkpoints and
// the deposit, and each acquire built its read reply and its update-list
// request and reply; ~138 while every poll round of the contended acquire
// in front of each release built its messages and its reply anew. The
// base-mode leg holds the same path without the extended protocol's
// phases (2 while the handover message and the snapshot allocated); the
// two-thread SMP leg adds sibling words deferred at commit and the
// siblings' point-A checkpoints (3 while those two and the fault future
// allocated; 6, 5 to 6, while the checkpoints allocated their blobs and
// envelopes). Reintroducing a per-event closure or per-message allocation
// multiplies the figure.
func TestReleasePathAllocBudget(t *testing.T) {
	for _, leg := range []struct {
		name   string
		mode   Mode
		tpn    int
		body   func(iters int) func(*Thread)
		budget int64
	}{
		{"ft", ModeFT, 1, counterBody, 0},
		{"base", ModeBase, 1, counterBody, 0},
		{"smp", ModeFT, 2, smpCounterBody, 0},
	} {
		t.Run(leg.name, func(t *testing.T) {
			var deferred int64
			allocs := func(iters int) uint64 {
				cfg := model.Default()
				cfg.Nodes = 4
				cfg.ThreadsPerNode = leg.tpn
				cl, err := New(Options{Config: cfg, Mode: leg.mode, Pages: 8, Locks: 2, Body: leg.body(iters)})
				if err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := cl.Run(); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				deferred = cl.ProtoStats().DeferredWords
				return after.Mallocs - before.Mallocs
			}
			short, long := allocs(4), allocs(24)
			if leg.tpn > 1 && deferred == 0 {
				t.Fatal("no sibling words were deferred: the SMP leg does not reach splitDeferred")
			}
			perRelease := (int64(long) - int64(short)) / int64(20*4*leg.tpn) // 20 extra iters x threads
			t.Logf("marginal allocations per release: %d", perRelease)
			if perRelease > leg.budget && !raceEnabled {
				t.Fatalf("steady-state release path allocates %d objects per release, budget %d", perRelease, leg.budget)
			}
		})
	}
}

// TestPollingRoundAllocBudget gates both rounds of the polling lock (§4.3).
// A contended round (set, read, clear, back off): four nodes take one lock
// once each and hold it for a while; holding it longer adds poll rounds by
// the waiters and nothing else, so long run minus short run, per round and
// rounded to the nearest object, is the cost of a round. A
// granting round (set, then a read whose reply carries the stored release
// timestamp): one node takes the lock and hands its element back, again
// and again. Neither allocates: the read's reply is the acquirer's
// envelope, filled in place. (One object per contended round and two per
// granting round while every read built its reply and cloned the
// timestamp into it.)
func TestPollingRoundAllocBudget(t *testing.T) {
	const budget = 0
	run := func(holdNs int64) (mallocs uint64, rounds int) {
		cfg := model.Default()
		cfg.Nodes = 4
		cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1, Body: func(th *Thread) {
			th.Acquire(0)
			th.Compute(holdNs)
			th.Release(0)
			th.Barrier()
		}})
		if err != nil {
			t.Fatal(err)
		}
		// lock.clear events at the lock's primary home: one per contended
		// poll round plus one per release.
		home := int32(cl.lockHomes.Primary(0))
		onEvent(cl, func(e obs.Event) {
			if e.Kind == obs.KLockClear && e.Node == home {
				rounds++
			}
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, rounds
	}
	// The last waiter spins for three holds: short of the 8 ms after which
	// it would start probing the cluster.
	shortM, shortR := run(500_000)
	longM, longR := run(2_500_000)
	rounds := longR - shortR
	if rounds < 100 {
		t.Fatalf("holding the lock 2 ms longer added %d poll rounds, want a contended run", rounds)
	}
	perRound := float64(int64(longM)-int64(shortM)) / float64(rounds)
	t.Logf("marginal allocations per contended poll round: %.2f (%d rounds)", perRound, rounds)
	if math.Round(perRound) > budget {
		t.Fatalf("contended poll round allocates %.2f objects, budget %d", perRound, budget)
	}

	grant := -1.0
	cfg := model.Default()
	cfg.Nodes = 4
	cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 8, Locks: 1, Body: func(th *Thread) {
		if th.NodeID() != 1 {
			return
		}
		ol := th.node.lockState(0)
		round := func() {
			if vt := th.pollingAcquire(0); len(vt) != cfg.Nodes {
				t.Errorf("an uncontended poll round granted with timestamp %v", vt)
			}
			// Hand the element back at every home, as a release would.
			th.postLockReplicas(0, &ol.clr)
		}
		for i := 0; i < 100; i++ {
			round()
		}
		grant = testing.AllocsPerRun(1000, round)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if h := cl.lockHomes.Primary(0); h == 1 {
		t.Fatal("lock 0 is homed at the acquiring node: its read would not be remote")
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("allocations per granting poll round: %.1f", grant)
	if grant < 0 || grant > budget {
		t.Fatalf("granting poll round allocates %.1f objects, budget %d", grant, budget)
	}
}

// Release-path benchmarks: sparse (lock-grained, Water-Nsq-like) vs dense
// (whole-page, FFT/LU-like) writers. Run against FullTwins here to see
// the tracked speedup; allocs/op is reported for the allocation gate's
// context.
func benchRelease(b *testing.B, dense, fullTwins bool) {
	body := func(th *Thread) {
		st := &counterState{}
		th.Setup(st)
		for st.Iter < 8 {
			th.Acquire(0)
			if dense {
				for off := 0; off < th.cl.cfg.PageSize; off += 8 {
					th.WriteU64(off, uint64(st.Iter)<<32|uint64(off))
				}
			} else {
				th.WriteU64(th.ID()*8, uint64(st.Iter+1))
			}
			st.Iter++
			th.Release(0)
		}
		th.Barrier()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := model.Default()
		cfg.Nodes = 4
		cl, err := New(Options{Config: cfg, Mode: ModeFT, Pages: 4, Locks: 1, Body: body, FullTwins: fullTwins})
		if err != nil {
			b.Fatal(err)
		}
		if err := cl.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReleaseSparseTracked(b *testing.B)   { benchRelease(b, false, false) }
func BenchmarkReleaseSparseFullTwins(b *testing.B) { benchRelease(b, false, true) }
func BenchmarkReleaseDenseTracked(b *testing.B)    { benchRelease(b, true, false) }
func BenchmarkReleaseDenseFullTwins(b *testing.B)  { benchRelease(b, true, true) }
