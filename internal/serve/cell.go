package serve

import (
	"fmt"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
	"ftsvm/internal/svm"
)

// Result is one serving cell's outcome. All times are virtual
// nanoseconds, so a Result is bit-identical across repeat runs of the
// same Spec.
type Result struct {
	Spec      Spec
	Err       error
	ExecNs    int64
	Completed int64
	Hist      *obs.Histogram
	// Milestones are the raw failure-lifecycle times; Phases is the
	// derived availability timeline; RewarmEndNs the virtual time the
	// last thread finished re-warming (0 when no re-warm phase exists).
	Milestones  svm.PhaseTimes
	Phases      Phases
	RewarmEndNs int64
	// HealthyP99Ns is the exact pre-failure p99 used as the re-warm
	// baseline (0 when no failure was injected or nothing completed
	// before it).
	HealthyP99Ns int64
}

// RunCell runs one serving cell to completion and folds the per-request
// completions into the latency histogram and availability timeline.
func RunCell(sp Spec) Result {
	cfg := model.Default()
	cfg.Nodes = sp.Nodes
	cfg.ThreadsPerNode = sp.ThreadsPerNode
	cfg.Detection = sp.Detect
	cfg.Chaos = sp.Chaos
	cfg.Seed = sp.Seed

	d, err := NewDriver(sp, cfg.PageSize)
	if err != nil {
		return Result{Spec: sp, Err: err}
	}
	w := d.Workload()
	cl, err := svm.New(svm.Options{
		Config:     cfg,
		Mode:       svm.ModeFT,
		Pages:      w.Pages,
		Locks:      w.Locks,
		HomeAssign: w.HomeAssign,
		Body:       w.Body,
	})
	if err != nil {
		return Result{Spec: sp, Err: err}
	}
	if sp.KillAtNs > 0 {
		victim := sp.Victim
		cl.Engine().At(sp.KillAtNs, func() { cl.KillNode(victim) })
	}
	if err := cl.Run(); err != nil {
		return Result{Spec: sp, Err: err}
	}
	if !cl.Finished() {
		return Result{Spec: sp, Err: fmt.Errorf("serve: %s/%s did not finish", sp.Scenario, sp.Detect)}
	}
	if err := w.Err(); err != nil {
		return Result{Spec: sp, Err: err}
	}
	if err := cl.VerifyReplicas(); err != nil {
		return Result{Spec: sp, Err: err}
	}

	res := Result{
		Spec:       sp,
		ExecNs:     cl.ExecTime(),
		Hist:       obs.NewHistogram(),
		Milestones: cl.PhaseTimes(),
	}
	for tid := range d.done {
		for i, dn := range d.done[tid] {
			if dn <= 0 {
				continue
			}
			res.Hist.Record(dn - d.arrive[tid][i])
			res.Completed++
		}
	}
	res.HealthyP99Ns = healthyP99(d.arrive, d.done, res.Milestones.KillNs)
	res.Phases, res.RewarmEndNs = computeTimeline(res.ExecNs, res.Milestones, d.arrive, d.done, sp.RewarmFactor)
	return res
}
