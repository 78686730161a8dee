package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"

	"ftsvm/internal/apps"
	"ftsvm/internal/harness"
	"ftsvm/internal/model"
	"ftsvm/internal/svm"
)

// cellSpec is one harness cell plus the host-time splits its wall time
// is added to.
type cellSpec struct {
	name   string
	cfg    harness.Config
	splits []string
}

// seeded makes the cell's cost model use the run's seed. The program
// under test only ever sees inputs generated from it.
func seeded(c harness.Config, seed int64) harness.Config {
	c.Overrides = func(cfg *model.Config) { cfg.Seed = seed }
	return c
}

// gridCells is the paper's evaluation, Figures 7-10: six SPLASH-2
// applications x {base, extended} x 8 nodes x {1, 2} threads.
func gridCells(o *options) []cellSpec {
	size, nodes, threads := harness.SizeMedium, 8, []int{1, 2}
	if o.quick {
		size, nodes, threads = harness.SizeSmall, 4, []int{1}
	}
	var cells []cellSpec
	for _, tpn := range threads {
		for _, app := range harness.AppNames {
			for _, mode := range []svm.Mode{svm.ModeBase, svm.ModeFT} {
				split := "svm.base_wall_s"
				if mode == svm.ModeFT {
					split = "svm.ext_wall_s"
				}
				cells = append(cells, cellSpec{
					name: fmt.Sprintf("%s/%s/%dx%d", app, mode, nodes, tpn),
					cfg: seeded(harness.Config{App: app, Size: size, Mode: mode,
						Nodes: nodes, ThreadsPerNode: tpn}, o.seed),
					splits: []string{"apps.wall_s." + app, split},
				})
			}
		}
	}
	return cells
}

// scaleCells is the 512-node tier: a lock-bound and a barrier-bound
// micro-application with no compute and next to no diffing, each healthy
// and with node 256 killed at its second release — the engine, the NIC
// model and the 512-wide protocol structures are all that is left.
func scaleCells(o *options) []cellSpec {
	tier, victim := harness.TierXLarge, 256
	sizes := map[string]harness.Size{"counter": harness.SizeSmall, "falseshare": harness.SizeMedium}
	if o.quick {
		tier, victim = harness.TierLarge, 32
		sizes["falseshare"] = harness.SizeSmall
	}
	var cells []cellSpec
	for _, a := range []struct{ app, split string }{{"counter", "svm.lock512"}, {"falseshare", "svm.barrier512"}} {
		c := seeded(harness.Config{App: a.app, Size: sizes[a.app], Mode: svm.ModeFT, Tier: tier, ThreadsPerNode: 1}, o.seed)
		cells = append(cells, cellSpec{name: a.app + "/" + string(tier), cfg: c, splits: []string{a.split + "_wall_s"}})
		c.KillKind, c.KillVictim, c.KillSeq = "release.done", victim, 2
		cells = append(cells, cellSpec{name: a.app + "/" + string(tier) + "/kill", cfg: c, splits: []string{a.split + "_kill_wall_s"}})
	}
	return cells
}

// killAt fail-stops node the seq'th time it emits kind — what harness
// cells with KillKind set do through their unexported tracer.
type killAt struct {
	cl   *svm.Cluster
	kind string
	node int
	seq  int64
	done bool
}

func (k *killAt) Event(e svm.TraceEvent) {
	if k.done || e.Kind != k.kind || e.Node != k.node || (k.seq != 0 && e.Seq != k.seq) {
		return
	}
	k.done = true
	k.cl.KillNode(k.node)
}

// construct builds a cell's workload and cluster without running it —
// the cold set-up cost, and the first two steps of drive.
func construct(c harness.Config, tr *tracer) (*apps.Workload, *svm.Cluster, error) {
	cfg, err := c.ModelConfig()
	if err != nil {
		return nil, nil, err
	}
	var w *apps.Workload
	tr.span("build", c.App, func() {
		w, err = harness.Build(c.App, c.Size, apps.Shape{Nodes: cfg.Nodes, ThreadsPerNode: cfg.ThreadsPerNode, PageSize: cfg.PageSize})
	})
	if err != nil {
		return nil, nil, err
	}
	opt := svm.Options{
		Config: cfg, Mode: c.Mode, LockAlgo: c.LockAlgo,
		Pages: w.Pages, Locks: w.Locks, HomeAssign: w.HomeAssign, Body: w.Body,
		AggregateDiffs: c.AggregateDiffs, UnsafeSinglePhase: c.UnsafeSinglePhase,
		FullTwins: c.FullTwins, Workers: c.Workers,
	}
	var kt *killAt
	if c.KillKind != "" {
		kt = &killAt{kind: c.KillKind, node: c.KillVictim, seq: c.KillSeq}
		opt.Tracer = kt
	}
	var cl *svm.Cluster
	tr.span("new", c.App, func() { cl, err = svm.New(opt) })
	if err != nil {
		return nil, nil, err
	}
	if kt != nil {
		kt.cl = cl
	}
	return w, cl, nil
}

// drive runs one cell through the same sequence of public calls as
// harness.Run — which does not hand out the cluster, and the cluster is
// where Engine().Events() and the counters live.
func drive(c harness.Config, tr *tracer) (*svm.Cluster, error) {
	w, cl, err := construct(c, tr)
	if err != nil {
		return nil, err
	}
	tr.span("run", c.App, func() { err = cl.Run() })
	if err != nil {
		return nil, err
	}
	tr.span("verify", c.App, func() {
		switch {
		case !cl.Finished():
			err = fmt.Errorf("%s did not finish", c.App)
		case w.Err() != nil:
			err = w.Err()
		default:
			err = cl.VerifyReplicas()
		}
	})
	return cl, err
}

// cellOut is what a pass keeps of a finished cell. The cluster itself is
// dropped at once: four live 512-node clusters would triple the
// collector's work for the rest of the pass.
type cellOut struct {
	ok     bool
	execNs int64
	phase  svm.PhaseTimes
}

// cellsWorkload assembles a workload over harness cells. finish turns the
// per-cell results of one pass into the workload's own virtual metrics.
func cellsWorkload(name, why string, bit, passes int, cellsOf func(*options) []cellSpec,
	finish func(p *pass, outs []cellOut)) *workload {
	w := &workload{name: name, why: why, bit: bit, passes: passes}
	w.setup = func(o *options) error {
		for _, s := range cellsOf(o) {
			if _, _, err := construct(s.cfg, nil); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
		}
		return nil
	}
	w.pass = func(o *options, p *pass) {
		specs := cellsOf(o)
		outs := make([]cellOut, len(specs))
		var stats clusterStats
		for i, s := range specs {
			p.cell(s.name, func(c *cellResult) {
				c.ops, c.splits = 1, s.splits
				var cl *svm.Cluster
				if cl, c.err = drive(s.cfg, p.tr); c.err != nil {
					return
				}
				p.tr.span("collect", s.cfg.App, func() {
					outs[i] = cellOut{ok: true, execNs: cl.ExecTime(), phase: cl.PhaseTimes()}
					c.check, c.fp = stats.add(cl)
				})
			})
		}
		stats.emit(p)
		var ns int64
		for _, out := range outs {
			ns += out.execNs
		}
		p.vals["virtual_ms"] = float64(ns) / 1e6
		finish(p, outs)
	}
	w.warm = func(o *options, p *pass) {
		for _, s := range cellsOf(o) {
			p.cell(s.name, func(c *cellResult) {
				c.ops = 1
				r := harness.Run(s.cfg)
				c.err = r.Err
				c.check = fmt.Sprintf("%d/%d/%d", r.ExecNs, r.MsgsSent, r.BytesSent)
			})
		}
	}
	w.extras = func(o *options, m *metrics) {
		// The CLI route for these cells is harness.RunGrid on every CPU;
		// its gain over the serial pass is the cost of the machine
		// discipline above, and the first thing a per-cell parallelism
		// change should move.
		specs := cellsOf(o)
		cfgs := make([]harness.Config, len(specs))
		for i, s := range specs {
			cfgs[i] = s.cfg
		}
		var rs []harness.Result
		prev := runtime.GOMAXPROCS(runtime.NumCPU())
		runtime.GC()
		h := measure(func() { rs = harness.RunGrid(cfgs) })
		runtime.GOMAXPROCS(prev)
		for _, r := range rs {
			if r.Err != nil {
				m.miss("harness.rungrid_speedup", r.Err.Error())
				return
			}
		}
		m.set("harness.rungrid_speedup", m.val["wall_s"]/h.wall.Seconds())
	}
	return w
}

// clusterStats sums the exact counters of every cluster a pass ran: the
// registry snapshot, engine events, directory size, rehoming wall time,
// and the six-way virtual breakdown of the extended cells.
type clusterStats struct {
	reg      map[string]int64
	events   int64
	dirBytes int64
	rehomeNs int64
	six      [6]int64
}

// add folds one finished cluster in and returns the cell's cross-route
// check string (what harness.Run must reproduce) and its fingerprint.
func (s *clusterStats) add(cl *svm.Cluster) (check, fp string) {
	if s.reg == nil {
		s.reg = map[string]int64{}
	}
	snap := cl.Metrics()
	for _, c := range snap {
		s.reg[c.Name] += c.Value
	}
	s.events += cl.Engine().Events()
	s.dirBytes += cl.DirectoryBytes()
	s.rehomeNs += cl.RehomeWallNs()
	if cl.Mode() == svm.ModeFT {
		bd := cl.AvgBreakdown()
		c, d, sy, df, pr, ck := bd.SixWay()
		for i, v := range []int64{c, d, sy, df, pr, ck} {
			s.six[i] += v
		}
	}
	msgs, _ := snap.Get("vmmc.msgs_sent")
	bytes, _ := snap.Get("vmmc.bytes_sent")
	check = fmt.Sprintf("%d/%d/%d", cl.ExecTime(), msgs, bytes)
	h := sha256.New()
	fmt.Fprintf(h, "%s %v %+v", check, snap, cl.PhaseTimes())
	return check, fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// counterMetrics maps registry counters to the ledger's names.
var counterMetrics = map[string]string{
	"vmmc.msgs_sent":        "vmmc.msgs",
	"vmmc.retransmits":      "vmmc.retransmits",
	"vmmc.probes_sent":      "vmmc.probes_sent",
	"vmmc.false_suspicions": "vmmc.false_suspicions",
	"svm.pages_diffed":      "mem.pages_diffed",
	"ckpt.checkpoints":      "checkpoint.count",
	"svm.read_faults":       "svm.read_faults",
	"svm.write_faults":      "svm.write_faults",
	"svm.remote_fetches":    "svm.remote_fetches",
	"svm.invalidations":     "svm.invalidations",
	"svm.intervals":         "svm.intervals",
	"svm.barrier_episodes":  "svm.barrier_episodes",
	"svm.remote_acquires":   "svm.remote_acquires",
	"svm.recoveries":        "svm.recoveries",
	"svm.migrated_threads":  "svm.migrated_threads",
}

func (s *clusterStats) emit(p *pass) {
	for from, to := range counterMetrics {
		p.vals[to] = float64(s.reg[from])
	}
	p.vals["vmmc.wire_mb"] = float64(s.reg["vmmc.bytes_sent"]) / 1e6
	p.vals["vmmc.post_stall_vms"] = float64(s.reg["vmmc.post_stalls_ns"]) / 1e6
	p.vals["mem.diff_mb"] = float64(s.reg["svm.diff_bytes"]) / 1e6
	p.vals["mem.twin_mb"] = float64(s.reg["svm.twin_bytes_copied"]) / 1e6
	p.vals["sim.events"] = float64(s.events)
	p.vals["proto.dir_kb"] = float64(s.dirBytes) / 1e3
	p.splits["proto.rehome_wall_us"] = float64(s.rehomeNs) / 1e3
	var total int64
	for _, v := range s.six {
		total += v
	}
	for i, name := range []string{"compute", "data", "sync", "diff", "protocol", "ckpt"} {
		if total > 0 {
			p.vals["svm.vt_"+name+"_pct"] = 100 * float64(s.six[i]) / float64(total)
		}
	}
}

// recoveryMs is the mean kill-to-recovered virtual time over the cells
// that had a failure injected and recovered from it.
func recoveryMs(outs []cellOut) float64 {
	var sum int64
	n := 0
	for _, out := range outs {
		if ph := out.phase; ph.KillNs > 0 && ph.RecoverNs > 0 {
			sum += ph.RecoverNs - ph.KillNs
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e6
}

func gridWorkload() *workload {
	return cellsWorkload("grid",
		"the paper's evaluation (Figures 7-10, 24 cells): apps compute, mem diffing and svm fault/release handlers do the work; proto, observers and recovery do almost none",
		onGrid, 5, gridCells,
		func(p *pass, outs []cellOut) {
			// The paper's headline: mean over the app x threads pairs of
			// extended / base - 1. Cells come in (base, extended) pairs.
			var sum float64
			pairs := 0
			for i := 0; i+1 < len(outs); i += 2 {
				if outs[i].ok && outs[i+1].ok {
					sum += float64(outs[i+1].execNs)/float64(outs[i].execNs) - 1
					pairs++
				}
			}
			if pairs > 0 {
				p.vals["ft_overhead_pct"] = 100 * sum / float64(pairs)
			}
		})
}

func scaleWorkload() *workload {
	w := cellsWorkload("scale",
		"512 nodes, no compute, next to no diffing, healthy and with a kill: sim (deep heap, 512+ processes), vmmc and proto (512-wide vector times, hashed directory) dominate; mem and apps must show nothing",
		onScale, 3, scaleCells,
		func(p *pass, outs []cellOut) { p.vals["recovery_ms"] = recoveryMs(outs) })
	grid := w.extras
	w.extras = func(o *options, m *metrics) {
		grid(o, m)
		// The first ledger datum for the parallel engine's keep-or-delete
		// verdict: the healthy barrier-bound cell on two lane workers
		// against its serial wall. (A kill forces the serial engine; the
		// lock-bound cell took 25 s at Workers=2 against 1.8 s serial when
		// measured once, too long to repeat in every traced run.)
		var serial, par float64
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		for _, s := range scaleCells(o) {
			if s.cfg.KillKind != "" || s.cfg.App != "falseshare" {
				continue
			}
			serial += m.val[s.splits[0]]
			s.cfg.Workers = 2
			var r harness.Result
			runtime.GC()
			h := measure(func() { r = harness.Run(s.cfg) })
			switch {
			case r.Err != nil:
				m.miss("sim.workers2_speedup", r.Err.Error())
				return
			case r.EngineWorkers != 2:
				m.miss("sim.workers2_speedup", "fell back to the serial engine: "+r.SerialFallback)
				return
			}
			par += h.wall.Seconds()
		}
		m.set("sim.workers2_speedup", serial/par)
	}
	return w
}
