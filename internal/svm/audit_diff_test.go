package svm_test

import (
	"fmt"
	"testing"

	"ftsvm/internal/apps"
	"ftsvm/internal/explore"
	"ftsvm/internal/harness"
	"ftsvm/internal/model"
	"ftsvm/internal/svm"
)

// The matrix here is the safety net under the incremental auditor: every
// run below executes with the reference full sweep and the incremental
// auditor attached to the same cluster (svm.AttachAuditDiff), and fails
// if they ever disagree at a boundary or if an audited field changes
// outside the boundary's touched set. It lives in the external test
// package because the workloads (apps, harness) and the failure
// schedules (explore) all import svm.

// diffCell builds one harness cell with the differential attached.
func diffCell(t *testing.T, c harness.Config) (*svm.Cluster, *svm.AuditDiff, *apps.Workload) {
	t.Helper()
	cfg, err := c.ModelConfig()
	if err != nil {
		t.Fatal(err)
	}
	w, err := harness.Build(c.App, c.Size, apps.Shape{Nodes: cfg.Nodes, ThreadsPerNode: cfg.ThreadsPerNode, PageSize: cfg.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := svm.New(svm.Options{
		Config: cfg, Mode: c.Mode, LockAlgo: c.LockAlgo,
		Pages: w.Pages, Locks: w.Locks, HomeAssign: w.HomeAssign, Body: w.Body,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, svm.AttachAuditDiff(cl), w
}

func TestAuditDifferentialHealthy(t *testing.T) {
	degree3 := func(cfg *model.Config) { cfg.ReplicaDegree = 3 }
	var cells []harness.Config
	for _, app := range []string{"counter", "falseshare", "kvmicro"} {
		for _, mode := range []svm.Mode{svm.ModeBase, svm.ModeFT} {
			cells = append(cells, harness.Config{App: app, Size: harness.SizeSmall, Mode: mode, Nodes: 4, ThreadsPerNode: 1})
		}
		cells = append(cells,
			harness.Config{App: app, Size: harness.SizeSmall, Mode: svm.ModeFT, Nodes: 6, ThreadsPerNode: 1, Overrides: degree3},
			harness.Config{App: app, Size: harness.SizeSmall, Mode: svm.ModeBase, Nodes: 4, ThreadsPerNode: 1, LockAlgo: svm.LockQueue},
			harness.Config{App: app, Size: harness.SizeSmall, Mode: svm.ModeBase, Nodes: 4, ThreadsPerNode: 1, LockAlgo: svm.LockNIC},
			harness.Config{App: app, Size: harness.SizeSmall, Mode: svm.ModeFT, Nodes: 4, ThreadsPerNode: 2, LockAlgo: svm.LockNIC},
		)
	}
	for _, app := range []string{"fft", "lu"} {
		cells = append(cells, harness.Config{App: app, Size: harness.SizeSmall, Mode: svm.ModeFT, Nodes: 8, ThreadsPerNode: 2})
	}
	for _, c := range cells {
		c := c
		name := fmt.Sprintf("%s/%s/%s/%dx%d", c.App, c.Mode, c.LockAlgo, c.Nodes, c.ThreadsPerNode)
		if c.Overrides != nil {
			name += "/k3"
		}
		t.Run(name, func(t *testing.T) {
			if testing.Short() && (c.App == "fft" || c.App == "lu") {
				t.Skip("the reference sweep over an 8x2 SPLASH cell takes seconds")
			}
			cl, d, w := diffCell(t, c)
			if err := cl.Run(); err != nil {
				t.Fatal(err)
			}
			if err := d.Err(); err != nil {
				t.Fatal(err)
			}
			if d.RefErr != nil {
				t.Fatalf("reference auditor: %v", d.RefErr)
			}
			if err := cl.Verify(w.Err); err != nil {
				t.Fatal(err)
			}
			if d.Boundaries != cl.Engine().Events() {
				t.Fatalf("differential saw %d of %d events", d.Boundaries, cl.Engine().Events())
			}
		})
	}
}

// diffSpec wraps an explorer spec so every instance it builds runs under
// the differential; the explorer's own EnableAuditor call then finds the
// auditor already attached. Each instance's differential is appended to
// *out (Sweep workers = 1 below, so no locking).
func diffSpec(sp explore.Spec, out *[]*svm.AuditDiff) explore.Spec {
	build := sp.New
	sp.New = func() (explore.Instance, error) {
		inst, err := build()
		if err == nil {
			*out = append(*out, svm.AttachAuditDiff(inst.Cluster))
		}
		return inst, err
	}
	return sp
}

func checkDiffs(t *testing.T, what string, diffs []*svm.AuditDiff) {
	t.Helper()
	for i, d := range diffs {
		if err := d.Err(); err != nil {
			t.Errorf("%s run %d: %v", what, i, err)
		}
		if d.RefErr != nil {
			t.Errorf("%s run %d: reference auditor: %v", what, i, d.RefErr)
		}
	}
}

// TestAuditDifferentialSingleKills re-executes a sample of every micro
// workload's failure points under the differential: the kill, the limbo
// window, the recovery actions (rehoming, lock rebuild, the reqVer clamp)
// and the completion edge are where the incremental gates could drift
// from the sweep.
func TestAuditDifferentialSingleKills(t *testing.T) {
	budget := 24
	if testing.Short() {
		budget = 6
	}
	for _, app := range []string{"counter", "falseshare", "kvmicro"} {
		app := app
		t.Run(app, func(t *testing.T) {
			var diffs []*svm.AuditDiff
			sp := diffSpec(harness.ExploreSpec(harness.Config{
				App: app, Size: harness.SizeSmall, Mode: svm.ModeFT, Nodes: 4, ThreadsPerNode: 1,
			}), &diffs)
			tr, err := explore.Record(sp)
			if err != nil {
				t.Fatal(err)
			}
			recoveries := int64(0)
			for _, b := range explore.Sample(tr.Boundaries, budget) {
				v := explore.Explore(sp, b, tr.Budget())
				if !v.Pass {
					t.Errorf("%s: %s", b.ID(), v.Err)
				}
				recoveries += v.Recoveries
			}
			checkDiffs(t, app, diffs)
			if recoveries == 0 {
				t.Fatal("no sampled kill was ever recovered from: the sample exercises nothing")
			}
		})
	}
}

// TestAuditDifferentialPairs does the same for ordered two-kill schedules
// at replication degree 3, where the second kill may land mid-recovery.
func TestAuditDifferentialPairs(t *testing.T) {
	firsts, seconds := 3, 3
	if testing.Short() {
		firsts, seconds = 2, 2
	}
	for _, app := range []string{"counter", "falseshare"} {
		app := app
		t.Run(app, func(t *testing.T) {
			var diffs []*svm.AuditDiff
			sp := diffSpec(harness.ExploreSpec(harness.Config{
				App: app, Size: harness.SizeSmall, Mode: svm.ModeFT, Nodes: 6, ThreadsPerNode: 1,
				Overrides: func(cfg *model.Config) { cfg.ReplicaDegree = 3 },
			}), &diffs)
			tr, err := explore.Record(sp)
			if err != nil {
				t.Fatal(err)
			}
			pairs, vs, err := explore.ExplorePairs(sp, explore.Sample(tr.Boundaries, firsts), seconds, tr.Budget(), 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			injected := 0
			for i, v := range vs {
				if !v.Pass {
					t.Errorf("%s: %s", pairs[i].ID(), v.Err)
				}
				if len(v.Injected) == 2 {
					injected++
				}
			}
			checkDiffs(t, app, diffs)
			if injected == 0 {
				t.Fatal("no pair injected both kills")
			}
		})
	}
}
