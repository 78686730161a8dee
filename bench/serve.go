package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"ftsvm/internal/harness"
	"ftsvm/internal/model"
	"ftsvm/internal/obs"
	"ftsvm/internal/serve"
	"ftsvm/internal/svm"
)

// serveSpecs is the svmserve matrix at five times its stream length: six
// chaos scenarios x {oracle, probe} detection, 4 nodes x 1 thread, Zipf
// 0.99, 70% GET, 2000 requests per thread at a 400 us mean gap — an open
// loop in virtual time at 10 kreq/s offered. The generator lives inside
// the simulation, so it is never late, and latency is completion minus
// scheduled arrival. Node 1 is killed at 40% of the nominal stream.
func serveSpecs(o *options) []serve.Spec {
	base := serve.DefaultSpec()
	base.Requests = 2000
	if o.quick {
		base.Requests = 100
	}
	base.MeanGapNs = 400_000
	base.Seed = o.seed
	base.ArrivalSeed = uint64(7 * o.seed)
	base.KillAtNs = int64(base.Requests) * base.MeanGapNs * 2 / 5
	var specs []serve.Spec
	for _, sc := range harness.ChaosScenarios() {
		for _, det := range []model.DetectionMode{model.DetectOracle, model.DetectProbe} {
			sp := base
			sp.Scenario, sp.Chaos, sp.Detect = sc.Name, sc.Chaos, det
			specs = append(specs, sp)
		}
	}
	return specs
}

func serveName(sp serve.Spec) string { return sp.Scenario + "." + sp.Detect.String() }

// serveCluster builds a serving cell's cluster the way serve.RunCell
// does.
func serveCluster(sp serve.Spec) (*serve.Driver, *svm.Cluster, error) {
	cfg := model.Default()
	cfg.Nodes = sp.Nodes
	cfg.ThreadsPerNode = sp.ThreadsPerNode
	cfg.Detection = sp.Detect
	cfg.Chaos = sp.Chaos
	cfg.Seed = sp.Seed
	d, err := serve.NewDriver(sp, cfg.PageSize)
	if err != nil {
		return nil, nil, err
	}
	w := d.Workload()
	cl, err := svm.New(svm.Options{Config: cfg, Mode: svm.ModeFT,
		Pages: w.Pages, Locks: w.Locks, HomeAssign: w.HomeAssign, Body: w.Body})
	return d, cl, err
}

// replica runs a serving cell step by step, as serve.RunCell does
// inside, to reach the cluster RunCell keeps to itself.
func replica(sp serve.Spec) (*svm.Cluster, error) {
	d, cl, err := serveCluster(sp)
	if err != nil {
		return nil, err
	}
	cl.EnableFlightRecorder(64)
	if sp.KillAtNs > 0 {
		cl.Engine().At(sp.KillAtNs, func() { cl.KillNode(sp.Victim) })
	}
	if err := cl.Run(); err != nil {
		return nil, err
	}
	switch {
	case !cl.Finished():
		return nil, fmt.Errorf("%s did not finish", serveName(sp))
	case d.Workload().Err() != nil:
		return nil, d.Workload().Err()
	}
	return cl, cl.VerifyReplicas()
}

func serveWorkload() *workload {
	w := &workload{
		name: "serve",
		why:  "open-loop Zipf GET/PUT at 10 kreq/s, 6 chaos scenarios x oracle/probe, a kill under load: the only workload with probes, retransmits and chaos, and the only source of latency and availability",
		bit:  onServe, passes: 9,
	}
	w.setup = func(o *options) error {
		for _, sp := range serveSpecs(o) {
			if _, _, err := serveCluster(sp); err != nil {
				return fmt.Errorf("%s: %w", serveName(sp), err)
			}
		}
		return nil
	}
	w.pass = func(o *options, p *pass) {
		pooled := obs.NewHistogram()
		var offered, completed, execNs, recoverNs, unavailNs, detectNs, rewarmNs int64
		cells := 0 // that ran, were killed and recovered: all of them, unless one fails
		for _, sp := range serveSpecs(o) {
			p.cell(serveName(sp), func(c *cellResult) {
				c.ops = sp.Requests * sp.Nodes * sp.ThreadsPerNode
				offered += int64(c.ops)
				var r serve.Result
				p.tr.span("runcell", serveName(sp), func() { r = serve.RunCell(sp) })
				if c.err = r.Err; c.err != nil {
					return
				}
				// A request that never completes is a failed op.
				if c.failed = c.ops - int(r.Completed); c.failed > 0 {
					c.note = "requests never completed"
				}
				rep, err := json.Marshal(r.Report())
				if err != nil {
					c.err = err
					return
				}
				c.fp = fmt.Sprintf("%x", sha256.Sum256(rep))[:16]
				c.check = fmt.Sprint(r.ExecNs)

				pooled.Merge(r.Hist)
				completed += r.Completed
				execNs += r.ExecNs
				if ms, ph := r.Milestones, r.Phases; ms.KillNs > 0 && ms.RecoverNs > 0 {
					cells++
					recoverNs += ms.RecoverNs - ms.KillNs
					detectNs += ms.DetectNs - ms.KillNs
					unavailNs += ph.UndetectedNs + ph.DetectingNs + ph.RecoveryNs
					rewarmNs += ph.RewarmNs
				}
				p.vals["serve.p99_ms."+serveName(sp)] = float64(r.Hist.Percentile(0.99)) / 1e6
			})
		}
		p.vals["serve.requests"] = float64(offered)
		p.vals["serve.completed"] = float64(completed)
		p.vals["virtual_ms"] = float64(execNs) / 1e6
		if cells == 0 || execNs == 0 {
			return
		}
		mean := func(ns int64) float64 { return float64(ns) / float64(cells) / 1e6 }
		p.vals["recovery_ms"] = mean(recoverNs)
		p.vals["unavail_ms"] = mean(unavailNs)
		p.vals["serve.detect_ms"] = mean(detectNs)
		p.vals["serve.rewarm_ms"] = mean(rewarmNs)
		p.vals["lat_p50_ms"] = float64(pooled.Percentile(0.50)) / 1e6
		p.vals["lat_p99_ms"] = float64(pooled.Percentile(0.99)) / 1e6
		p.vals["serve.p999_ms"] = float64(pooled.Percentile(0.999)) / 1e6
		p.vals["goodput_krps"] = float64(completed) / (float64(execNs) / 1e9) / 1e3
	}
	w.warm = func(o *options, p *pass) {
		var stats clusterStats
		for _, sp := range serveSpecs(o) {
			p.cell(serveName(sp), func(c *cellResult) {
				c.ops = sp.Requests * sp.Nodes * sp.ThreadsPerNode
				var cl *svm.Cluster
				if cl, c.err = replica(sp); c.err != nil {
					return
				}
				stats.add(cl)
				c.check = fmt.Sprint(cl.ExecTime())
			})
		}
		stats.emit(p)
	}
	return w
}
