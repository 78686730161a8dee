package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"time"

	"ftsvm/internal/explore"
	"ftsvm/internal/harness"
	"ftsvm/internal/model"
	"ftsvm/internal/svm"
)

// sweepCell is one application's failure-injection sweep: record the
// failure-free run, sample budget boundaries, re-execute each with a
// fail-stop injected there. With pairs set it is the ordered pair sample
// at replication degree 3 instead: budget first kills, seconds second
// kills each.
//
// The budget is spread over shards recordings, the way svmfi -shard
// splits a sweep. The lock applications' schedules are chaotic in the
// engine seed (the polling lock's random backoff decides every race) and
// an injection run costs 4 k to 117 k events depending on where the kill
// lands: one recording's 64-boundary counter sweep took 1.0-1.7 s of host
// time depending on the seed alone, and no later change could be told
// from that. So three quarters of the recordings are pinned — seeds 1, 2,
// ... are the reference coordinates every commit and every run re-executes
// — and the last seeded recordings are drawn from the run's seed.
type sweepCell struct {
	app     string
	nodes   int
	degree  int
	budget  int
	shards  int
	seeded  int
	pairs   bool
	seconds int
}

func (c sweepCell) name() string {
	if c.pairs {
		return "pairs/" + c.app
	}
	return "sweep/" + c.app
}

// ops is the number of injection runs the cell is budgeted for.
func (c sweepCell) ops() int {
	if c.pairs {
		return c.budget * c.seconds
	}
	return c.budget
}

// spec is the cell's shard-th recording at run seed seed: recording k is
// at seed k+1, the seeded ones moved on by seeded for each run seed past
// 1, so run seed 1 records at seeds 1..shards and no two run seeds share a
// seeded recording.
func (c sweepCell) spec(seed int64, shard int) explore.Spec {
	if shard >= c.shards-c.seeded {
		seed = int64(shard) + 1 + (seed-1)*int64(c.seeded)
	} else {
		seed = int64(shard) + 1
	}
	return harness.ExploreSpec(harness.Config{
		App: c.app, Size: harness.SizeSmall, Nodes: c.nodes, ThreadsPerNode: 1,
		LockAlgo: svm.LockPolling,
		Overrides: func(cfg *model.Config) {
			cfg.Seed = seed
			cfg.ReplicaDegree = c.degree
		},
	})
}

// sweepCells are the svmfi acceptance shapes at a sampled budget: three
// micro-applications at 4 nodes, and the degree-3 ordered pair sample
// (4 firsts x 4 seconds) at 6 nodes.
func sweepCells(o *options) []sweepCell {
	single := func(app string, budget int) sweepCell {
		c := sweepCell{app: app, nodes: 4, degree: 2, budget: budget, shards: 8, seeded: 2}
		if o.quick {
			c.budget, c.shards, c.seeded = 4, 2, 1
		}
		return c
	}
	pair := func(app string) sweepCell {
		c := sweepCell{app: app, nodes: 6, degree: 3, pairs: true, budget: 4, shards: 4, seeded: 1, seconds: 4}
		if o.quick {
			c.budget, c.shards, c.seeded, c.seconds = 1, 1, 1, 1
		}
		return c
	}
	return []sweepCell{
		single("counter", 128), single("falseshare", 256), single("kvmicro", 128),
		pair("counter"), pair("falseshare"),
	}
}

func sweepWorkload() *workload {
	w := &workload{
		name: "sweep",
		why:  "failure-injection sweep and degree-3 pairs: every re-execution builds a cluster and runs under recorder, auditor and oracle, so observers, recovery and construction dominate, layers grid never touches",
		bit:  onSweep, passes: 3,
	}
	w.setup = func(o *options) error {
		for _, c := range sweepCells(o) {
			for k := 0; k < c.shards; k++ {
				if _, err := explore.Record(c.spec(o.seed, k)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// sweepPass sweeps the first shards recordings of every cell.
	sweepPass := func(o *options, p *pass, shards int) {
		var recorded, swept, pairs, events, sweptEvents, recoveries, virtualNs int64
		for _, sc := range sweepCells(o) {
			var recWall, runWall time.Duration
			p.cell(sc.name(), func(c *cellResult) {
				c.ops = sc.ops()
				h := sha256.New()
				var all []explore.Verdict
				for k := 0; k < min(sc.shards, shards); k++ {
					sp := sc.spec(o.seed, k)
					var tr *explore.Trace
					t0 := time.Now()
					p.tr.span("record", sp.Name, func() { tr, c.err = explore.Record(sp) })
					recWall += time.Since(t0)
					if c.err != nil {
						return
					}
					recorded += int64(len(tr.Boundaries))
					events += tr.Events
					fmt.Fprintf(h, "%s", tr.Fingerprint)
					bs := explore.Shard(explore.Sample(tr.Boundaries, sc.budget), k, sc.shards)

					// With one worker the progress callback runs between
					// injection runs, so consecutive calls bracket one run
					// (a first pair's span also holds its discovery run).
					kind := "boundary"
					if sc.pairs {
						kind = "pair"
					}
					open := p.tr.begin(kind, sp.Name)
					progress := func(done int, v explore.Verdict) {
						p.tr.end(open)
						open = p.tr.begin(kind, sp.Name)
					}
					var vs []explore.Verdict
					t0 = time.Now()
					if sc.pairs {
						_, vs, c.err = explore.ExplorePairs(sp, bs, sc.seconds, tr.Budget(), 1, progress)
					} else {
						vs = explore.Sweep(sp, bs, tr.Budget(), 1, progress)
					}
					runWall += time.Since(t0)
					p.tr.end(open)
					if c.err != nil {
						return
					}
					all = append(all, vs...)
				}

				c.ops = len(all)
				for _, v := range all {
					if !v.Pass {
						c.failed++
						if c.note == "" {
							c.note = fmt.Sprintf("%v: %s", v.Schedule, v.Err)
						}
					}
					events += v.Events
					recoveries += v.Recoveries
					virtualNs += v.TimeNs
					if !sc.pairs {
						sweptEvents += v.Events
					}
					fmt.Fprintf(h, " %v %v %d %s", v.Schedule, v.Pass, v.TimeNs, v.Fingerprint)
				}
				c.fp = fmt.Sprintf("%x", h.Sum(nil)[:8])
				if sc.pairs {
					pairs += int64(len(all))
				} else {
					swept += int64(len(all))
				}
			})
			p.splits["explore.record_s"] += recWall.Seconds()
			if sc.pairs {
				p.splits["explore.ms_per_pair"] += float64(runWall.Nanoseconds()) / 1e6
			} else {
				p.splits["explore.ms_per_boundary"] += float64(runWall.Nanoseconds()) / 1e6
			}
		}
		if pairs > 0 {
			p.splits["explore.ms_per_pair"] /= float64(pairs)
		}
		if swept > 0 {
			p.splits["explore.ms_per_boundary"] /= float64(swept)
			p.vals["explore.events_per_boundary"] = float64(sweptEvents) / float64(swept)
		}
		p.vals["virtual_ms"] = float64(virtualNs) / 1e6
		p.vals["sim.events"] = float64(events)
		p.vals["svm.recoveries"] = float64(recoveries)
		p.vals["explore.boundaries_recorded"] = float64(recorded)
		p.vals["explore.boundaries_swept"] = float64(swept)
		p.vals["explore.pairs_swept"] = float64(pairs)
	}
	w.pass = func(o *options, p *pass) { sweepPass(o, p, math.MaxInt) }
	// There is no second route through explore to cross-check, so the
	// warm-up only has to warm the process: one recording per cell.
	w.warm = func(o *options, p *pass) { sweepPass(o, p, 1) }
	return w
}
