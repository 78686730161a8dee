package svm_test

import (
	"testing"

	"ftsvm/internal/explore"
	"ftsvm/internal/harness"
	"ftsvm/internal/svm"
)

// TestVTSnapshotsNeverMutated holds the snapshot rule on whole workloads:
// every vector-time snapshot a node hands out (to lock homes, backups,
// checkpoints, the barrier master and the commit sink) must still equal a
// private clone taken when it was made, at the end of the run. Each app
// runs healthy and with sampled kills, every run under the online auditor
// and the consistency oracle (explore.ExploreSchedule).
func TestVTSnapshotsNeverMutated(t *testing.T) {
	for _, tc := range []struct {
		app   string
		kills int
	}{{"waternsq", 3}, {"kvstore", 2}} {
		t.Run(tc.app, func(t *testing.T) {
			var watches []*svm.VTSnapshotWatch
			sp := harness.ExploreSpec(harness.Config{App: tc.app, Size: harness.SizeSmall, Mode: svm.ModeFT, Nodes: 4, ThreadsPerNode: 1})
			build := sp.New
			sp.New = func() (explore.Instance, error) {
				inst, err := build()
				if err == nil {
					watches = append(watches, svm.WatchVTSnapshots(inst.Cluster))
				}
				return inst, err
			}
			tr, err := explore.Record(sp)
			if err != nil {
				t.Fatal(err)
			}
			verdicts := []explore.Verdict{explore.ExploreSchedule(sp, nil, tr.Budget())}
			for _, b := range explore.Sample(tr.Boundaries, tc.kills) {
				verdicts = append(verdicts, explore.Explore(sp, b, tr.Budget()))
			}
			recoveries := int64(0)
			for _, v := range verdicts {
				if !v.Pass {
					t.Errorf("%v: %s", v.Schedule, v.Err)
				}
				recoveries += v.Recoveries
			}
			if recoveries == 0 {
				t.Error("no sampled kill was recovered from")
			}
			snaps := 0
			for i, w := range watches {
				if w.Len() == 0 {
					t.Errorf("run %d handed out no snapshot", i)
				}
				if err := w.Err(); err != nil {
					t.Errorf("run %d: %v", i, err)
				}
				snaps += w.Len()
			}
			t.Logf("%d runs, %d recoveries, %d snapshots checked", len(watches), recoveries, snaps)
		})
	}
}
