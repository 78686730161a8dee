package harness

import (
	"fmt"
	"testing"

	"ftsvm/internal/obs"
	"ftsvm/internal/svm"
)

// runAppWithKill executes app (small size, 4 nodes, extended protocol),
// fail-stopping victim the seq'th time it records kind, and verifies
// completion, the app's own result check, and the replica audit.
func runAppWithKill(t *testing.T, app string, kind obs.Kind, victim int, seq int64) {
	t.Helper()
	runAppWithKillTPN(t, app, kind, victim, seq, 1)
}

func runAppWithKillTPN(t *testing.T, app string, kind obs.Kind, victim int, seq int64, tpn int) {
	t.Helper()
	cl, w, err := NewCluster(Config{App: app, Size: SizeSmall, Mode: svm.ModeFT, Nodes: 4, ThreadsPerNode: tpn})
	if err != nil {
		t.Fatal(err)
	}
	fired := killOn(cl, kind, victim, seq)
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if !*fired {
		t.Skip("kill point never reached")
	}
	if !cl.Finished() {
		t.Fatal("threads did not finish")
	}
	if err := w.Err(); err != nil {
		t.Fatalf("result verification: %v", err)
	}
	if err := cl.VerifyReplicas(); err != nil {
		t.Fatalf("replica audit: %v", err)
	}
}

// TestBystanderHomeFailure is the regression for the in-flight-release
// re-propagation bug: node 0 (a secondary home of pages being released by
// live nodes) dies at its own first commit; a live releaser's phase 1 had
// already landed on node 0, recovery rebuilt the new secondary from the
// primary's committed copy *before* the releaser's local phase 2 ran, and
// without the post-recovery re-propagation the interval existed only in
// the committed replica. Found by `svm check`; verified byte-for-byte by
// VerifyReplicas.
func TestBystanderHomeFailure(t *testing.T) {
	runAppWithKill(t, "waternsq", obs.KReleaseCommit, 0, 1)
}

// TestBystanderHomeFailureSweep widens the regression to every victim at
// two milestones across the lock-based apps.
func TestBystanderHomeFailureSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, app := range []string{"waternsq", "kvstore"} {
		for victim := 0; victim < 4; victim++ {
			for _, kind := range []obs.Kind{obs.KReleaseCommit, obs.KReleaseSaveTS} {
				t.Run(app+"/"+kind.String(), func(t *testing.T) {
					runAppWithKill(t, app, kind, victim, 2)
				})
			}
		}
	}
}

// TestOceanReplayCarry is the regression for the Ocean resumability bug:
// the red half-sweep's residual carry must live in the checkpointed
// thread state, or a migrated thread replaying the black half-sweep
// records a zeroed carry and the monotone-residual verification fails.
func TestOceanReplayCarry(t *testing.T) {
	runAppWithKill(t, "ocean", obs.KReleaseCommit, 0, 5)
}

// TestSMPReplayExactness covers the three mechanisms that make replay
// exact with 2 threads/node (see DESIGN.md substitution contracts):
// commit-time deferral of a sibling's mid-critical-section words, the
// matching point-A checkpoint skip, and roll-decision-aware snapshot
// selection at migration. Each named schedule was an observed failure of
// one mechanism before it existed:
//   - waternsq savets/ckptB kills: roll-forward double-apply (deferral)
//     and lost-flush (point-A skip);
//   - fft/radix phase1 kills: roll-back restoring a too-new sibling
//     point-A snapshot (LatestValid).
func TestSMPReplayExactness(t *testing.T) {
	cases := []struct {
		app  string
		kind obs.Kind
		seq  int64
	}{
		{"waternsq", obs.KReleaseCommit, 5},
		{"waternsq", obs.KReleaseSaveTS, 5},
		{"waternsq", obs.KReleaseCkptB, 3},
		{"fft", obs.KReleasePhase1, 1},
		{"fft", obs.KReleasePhase1, 3},
		{"radix", obs.KReleasePhase1, 1},
		{"lu", obs.KReleasePhase1, 1},
		{"volrend", obs.KReleasePhase1, 1},
	}
	for _, c := range cases {
		for victim := 0; victim < 4; victim++ {
			t.Run(fmt.Sprintf("%s/%s/n%d/s%d", c.app, c.kind, victim, c.seq), func(t *testing.T) {
				runAppWithKillTPN(t, c.app, c.kind, victim, c.seq, 2)
			})
		}
	}
}

// TestDeferredWordsContract pins the deferral machinery's activation
// contract: inactive with one thread per node (identical behavior to the
// pre-SMP protocol), active under SMP lock contention.
func TestDeferredWordsContract(t *testing.T) {
	run := func(tpn int) int64 {
		cl, w, err := NewCluster(Config{App: "waternsq", Size: SizeSmall, Mode: svm.ModeFT, Nodes: 4, ThreadsPerNode: tpn})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		return cl.ProtoStats().DeferredWords
	}
	if d := run(1); d != 0 {
		t.Fatalf("1 thread/node deferred %d words, want 0", d)
	}
	if d := run(2); d == 0 {
		t.Fatal("2 threads/node deferred nothing; tracking inactive?")
	}
}

// TestCrossRunDeterminism runs every application twice at every
// configuration axis that has bitten before (SMP, both modes) and demands
// identical virtual-time results. (Water-SpatialFL once differed between
// runs: a fetch loop ranged over a map, and Go's randomized iteration
// perturbed the fetch interleaving.)
func TestCrossRunDeterminism(t *testing.T) {
	for _, app := range AppNames {
		for _, mode := range []svm.Mode{svm.ModeBase, svm.ModeFT} {
			r1 := Run(Config{App: app, Size: SizeSmall, Mode: mode, Nodes: 4, ThreadsPerNode: 2})
			r2 := Run(Config{App: app, Size: SizeSmall, Mode: mode, Nodes: 4, ThreadsPerNode: 2})
			if r1.Err != nil || r2.Err != nil {
				t.Fatalf("%s/%s: %v / %v", app, mode, r1.Err, r2.Err)
			}
			if r1.ExecNs != r2.ExecNs || r1.MsgsSent != r2.MsgsSent {
				t.Errorf("%s/%s: runs differ: %d vs %d ns, %d vs %d msgs",
					app, mode, r1.ExecNs, r2.ExecNs, r1.MsgsSent, r2.MsgsSent)
			}
		}
	}
}
