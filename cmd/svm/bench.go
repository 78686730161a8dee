package main

import (
	"flag"
	"fmt"
	"io"

	"ftsvm/internal/harness"
	"ftsvm/internal/model"
	"ftsvm/internal/serve"
	"ftsvm/internal/svm"
)

// render prints one figure or ablation and returns how many of its cells
// ended in an ERROR row.
type render func(out io.Writer, sz harness.Size, nodes int) int

var figures = map[string]render{
	"7":        breakdown(1, false),
	"8":        breakdown(1, true),
	"9":        breakdown(2, false),
	"10":       breakdown(2, true),
	"overhead": harness.OverheadSummary,
	"diffs":    harness.DiffAnalysis,
	"scaling": func(out io.Writer, sz harness.Size, _ int) int {
		return harness.ScalingSummary(out, sz, []string{"fft", "waternsq", "radix"})
	},
}

// breakdown renders Figure 7/9 (4-component) or 8/10 (6-component) at
// tpn threads per node.
func breakdown(tpn int, six bool) render {
	return func(out io.Writer, sz harness.Size, nodes int) int {
		return harness.FigureBreakdown(out, sz, nodes, tpn, six)
	}
}

var ablations = map[string]render{
	"locks":      ablationLocks,
	"postqueue":  ablationPostQueue,
	"checkpoint": ablationCheckpoint,
	"serial":     ablationSerial,
	"recovery":   ablationRecovery,
	"aggregate":  ablationAggregate,
	"twophase":   ablationTwoPhase,
	"pagesize":   ablationPageSize,
	"detection":  ablationDetection,
	"slo":        ablationSLO,
}

// benchCmd regenerates the paper's evaluation: the execution-time
// breakdown figures (7-10), the headline overhead summary, and the
// ablation studies discussed in §4.3 and §5.3:
//
//	svm bench -figure 7            # Figure 7 (8x1, 4-component breakdown)
//	svm bench -figure all          # Figures 7-10 + overhead summary (the default)
//	svm bench -ablation locks      # queue vs polling lock
//	svm bench -ablation detection  # failure-detection timeout sweep
//	svm bench -size small|medium|paper
//
// It exits 1 when any cell ends in an ERROR row. The recorded values of
// the grid are gated by the root package's TestGolden, not here.
func benchCmd(args []string, out, errw io.Writer) (code int) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	figure := fs.String("figure", "", "figure to regenerate: 7, 8, 9, 10, overhead, diffs, scaling, all")
	ablation := fs.String("ablation", "", "ablation to run: locks, postqueue, checkpoint, serial, recovery, aggregate, twophase, pagesize, detection, slo")
	size := enum(fs, "size", "medium", "problem size: small, medium, paper", harness.ParseSize)
	nodes := enum(fs, "nodes", "8", "cluster nodes", atLeast(1))
	prof := profileFlags(fs)
	if code, ok := parse(fs, args, errw); !ok {
		return code
	}
	if *figure == "" && *ablation == "" {
		*figure = "all"
	}
	var todo []render
	switch f, ok := figures[*figure]; {
	case *figure == "all":
		todo = append(todo, allFigures)
	case ok:
		todo = append(todo, f)
	case *figure != "":
		return usageError(errw, "bench", fmt.Errorf("unknown figure %q", *figure))
	}
	if *ablation != "" {
		a, ok := ablations[*ablation]
		if !ok {
			return usageError(errw, "bench", fmt.Errorf("unknown ablation %q", *ablation))
		}
		if *ablation == "recovery" || *ablation == "detection" || *ablation == "slo" {
			if err := survivable(*nodes); err != nil {
				return usageError(errw, "bench", err)
			}
		}
		todo = append(todo, a)
	}

	if err := prof.open(); err != nil {
		return usageError(errw, "bench", err)
	}
	defer prof.close(errw, &code)
	failed := 0
	for _, t := range todo {
		failed += t(out, *size, *nodes)
	}
	if failed > 0 {
		fmt.Fprintf(errw, "svm bench: %d cell(s) failed\n", failed)
		return 1
	}
	return 0
}

// allFigures renders Figures 7-10, the overhead summary and the diff
// analysis, one blank line apart.
func allFigures(out io.Writer, sz harness.Size, nodes int) (failed int) {
	for i, name := range []string{"7", "8", "9", "10", "overhead", "diffs"} {
		if i > 0 {
			fmt.Fprintln(out)
		}
		failed += figures[name](out, sz, nodes)
	}
	return failed
}

// table counts the ERROR rows of one ablation.
type table struct {
	out  io.Writer
	errs int
}

// row prints label and then values in format, or ERROR and err when err
// is set.
func (t *table) row(label string, err error, format string, values ...any) {
	if err != nil {
		fmt.Fprintf(t.out, "%s ERROR: %v\n", label, err)
		t.errs++
		return
	}
	fmt.Fprintf(t.out, "%s "+format+"\n", append([]any{label}, values...)...)
}

// ablationLocks compares GeNIMA's distributed queue lock against the
// paper's centralized polling lock (§4.3: "the centralized algorithm
// performs at least as well as the distributed queuing lock").
func ablationLocks(out io.Writer, sz harness.Size, nodes int) int {
	t := &table{out: out}
	fmt.Fprintf(out, "Ablation: lock algorithm (base protocol, %d nodes, size=%s)\n", nodes, sz)
	fmt.Fprintf(out, "%-14s %-9s %12s %12s\n", "app", "lock", "total ms", "lock ms")
	for _, app := range []string{"waternsq", "watersp", "radix", "volrend"} {
		for _, algo := range []svm.LockAlgo{svm.LockQueue, svm.LockPolling, svm.LockNIC} {
			r := harness.Run(harness.Config{
				App: app, Size: sz, Mode: svm.ModeBase,
				Nodes: nodes, ThreadsPerNode: 1, LockAlgo: algo,
			})
			_, _, lock, _ := r.Breakdown.FourWay()
			t.row(fmt.Sprintf("%-14s %-9s", app, algo), r.Err, "%12.1f %12.1f", float64(r.ExecNs)/1e6, float64(lock)/1e6)
		}
	}
	return t.errs
}

// ablationPostQueue sweeps the NIC post-queue depth, the parameter the
// paper found critical (§5.3.2): diff bursts at releases overflow short
// queues and block the sending processor.
func ablationPostQueue(out io.Writer, sz harness.Size, nodes int) int {
	t := &table{out: out}
	fmt.Fprintf(out, "Ablation: NIC post-queue depth (extended protocol, FFT, %d nodes x 2, size=%s)\n", nodes, sz)
	fmt.Fprintf(out, "%8s %12s %14s\n", "depth", "total ms", "post stalls ms")
	for _, depth := range []int{8, 16, 32, 64, 128, 256} {
		r := harness.Run(harness.Config{
			App: "fft", Size: sz, Mode: svm.ModeFT, Nodes: nodes, ThreadsPerNode: 2,
			Overrides: func(c *model.Config) { c.PostQueueDepth = depth },
		})
		t.row(fmt.Sprintf("%8d", depth), r.Err, "%12.1f %14.1f", float64(r.ExecNs)/1e6, float64(r.PostStallNs)/1e6)
	}
	return t.errs
}

// ablationCheckpoint sweeps the thread stack (checkpoint blob floor) size;
// the paper reports checkpoint overhead proportional to stack size and
// release count.
func ablationCheckpoint(out io.Writer, sz harness.Size, nodes int) int {
	t := &table{out: out}
	fmt.Fprintf(out, "Ablation: checkpoint stack size (extended protocol, WaterNsq, %d nodes x 1, size=%s)\n", nodes, sz)
	fmt.Fprintf(out, "%10s %12s %12s %12s\n", "stack B", "total ms", "ckpt ms", "ckpts")
	for _, stack := range []int{1024, 2048, 4096, 8192, 16384} {
		r := harness.Run(harness.Config{
			App: "waternsq", Size: sz, Mode: svm.ModeFT, Nodes: nodes, ThreadsPerNode: 1,
			Overrides: func(c *model.Config) { c.MinCheckpointBytes = stack },
		})
		t.row(fmt.Sprintf("%10d", stack), r.Err, "%12.1f %12.1f %12d",
			float64(r.ExecNs)/1e6, float64(r.Breakdown.Comp[svm.CompCheckpoint])/1e6, r.Checkpoints)
	}
	return t.errs
}

// ablationSerial quantifies the extended protocol's release serialization
// (§4.4) by imposing it on the base protocol.
func ablationSerial(out io.Writer, sz harness.Size, nodes int) int {
	t := &table{out: out}
	fmt.Fprintf(out, "Ablation: release serialization (base protocol, %d nodes x 2, size=%s)\n", nodes, sz)
	fmt.Fprintf(out, "%-14s %10s %10s %9s\n", "app", "parallel", "serial", "delta")
	for _, app := range []string{"waternsq", "watersp", "radix"} {
		c := harness.Config{App: app, Size: sz, Mode: svm.ModeBase, Nodes: nodes, ThreadsPerNode: 2}
		par := harness.Run(c)
		c.SerialReleases = true
		ser := harness.Run(c)
		var err error
		if par.Err != nil || ser.Err != nil {
			err = fmt.Errorf("par=%v ser=%v", par.Err, ser.Err)
		}
		t.row(fmt.Sprintf("%-14s", app), err, "%10.1f %10.1f %+8.1f%%",
			float64(par.ExecNs)/1e6, float64(ser.ExecNs)/1e6, 100*float64(ser.ExecNs-par.ExecNs)/float64(par.ExecNs))
	}
	return t.errs
}

// ablationAggregate measures the paper's §6 suggestion of propagating
// fewer, larger diff messages: all of a release's diffs for one home ride
// in one message.
func ablationAggregate(out io.Writer, sz harness.Size, nodes int) int {
	t := &table{out: out}
	fmt.Fprintf(out, "Ablation: aggregated diff propagation (extended protocol, %d nodes x 2, size=%s)\n", nodes, sz)
	fmt.Fprintf(out, "%-14s %-12s %12s %12s %12s\n", "app", "diffs", "total ms", "diff ms", "messages")
	for _, app := range []string{"fft", "lu", "waternsq"} {
		for _, agg := range []bool{false, true} {
			r := harness.Run(harness.Config{
				App: app, Size: sz, Mode: svm.ModeFT, Nodes: nodes, ThreadsPerNode: 2,
				AggregateDiffs: agg,
			})
			label := "per-page"
			if agg {
				label = "aggregated"
			}
			t.row(fmt.Sprintf("%-14s %-12s", app, label), r.Err, "%12.1f %12.1f %12d",
				float64(r.ExecNs)/1e6, float64(r.Breakdown.Comp[svm.CompDiff])/1e6, r.MsgsSent)
		}
	}
	return t.errs
}

// ablationTwoPhase measures what the two-phase diff propagation's
// ordering guarantee costs, by comparing against the deliberately unsafe
// single-phase variant (both copies updated under one fence). The delta
// is the price of being able to roll an interrupted release forward or
// backward.
func ablationTwoPhase(out io.Writer, sz harness.Size, nodes int) int {
	t := &table{out: out}
	fmt.Fprintf(out, "Ablation: two-phase vs (unsafe) single-phase propagation (extended, %d nodes x 1, size=%s)\n", nodes, sz)
	fmt.Fprintf(out, "%-14s %-14s %12s %12s\n", "app", "propagation", "total ms", "diff ms")
	for _, app := range []string{"fft", "lu", "waternsq"} {
		for _, unsafe := range []bool{false, true} {
			r := harness.Run(harness.Config{
				App: app, Size: sz, Mode: svm.ModeFT, Nodes: nodes, ThreadsPerNode: 1,
				UnsafeSinglePhase: unsafe,
			})
			label := "two-phase"
			if unsafe {
				label = "single-phase"
			}
			t.row(fmt.Sprintf("%-14s %-14s", app, label), r.Err, "%12.1f %12.1f",
				float64(r.ExecNs)/1e6, float64(r.Breakdown.Comp[svm.CompDiff])/1e6)
		}
	}
	return t.errs
}

// ablationPageSize sweeps the virtual page size, SVM's coherence
// granularity. Larger pages amortize fetch latency for apps with coarse
// sharing (FFT) but amplify false sharing and diff volume for apps with
// fine-grained writes (Water-Nsquared) — and the extended protocol pays
// the diff price twice, so its overhead grows faster with the page size.
func ablationPageSize(out io.Writer, sz harness.Size, nodes int) int {
	t := &table{out: out}
	fmt.Fprintf(out, "Ablation: page size (coherence granularity, %d nodes x 1, size=%s)\n", nodes, sz)
	fmt.Fprintf(out, "%-14s %8s %10s %10s %9s %12s\n", "app", "page B", "base ms", "ext ms", "overhead", "ext diff ms")
	for _, app := range []string{"fft", "waternsq", "radix"} {
		for _, page := range []int{1024, 4096, 16384} {
			c := harness.Config{App: app, Size: sz, Nodes: nodes, ThreadsPerNode: 1,
				Overrides: func(c *model.Config) { c.PageSize = page }}
			base := harness.Run(c)
			c.Mode = svm.ModeFT
			ext := harness.Run(c)
			var err error
			if base.Err != nil || ext.Err != nil {
				err = fmt.Errorf("base=%v ext=%v", base.Err, ext.Err)
			}
			t.row(fmt.Sprintf("%-14s %8d", app, page), err, "%10.1f %10.1f %+8.0f%% %12.1f",
				float64(base.ExecNs)/1e6, float64(ext.ExecNs)/1e6,
				harness.Overhead(base, ext), float64(ext.Breakdown.Comp[svm.CompDiff])/1e6)
		}
	}
	return t.errs
}

// ablationDetection sweeps the failure-detection (heartbeat probe)
// timeout under both detector implementations. Oracle mode measures only
// the timeout constant (detection is free and instantaneous once a wait
// expires); probe mode pays for real probe/ack traffic and needs
// ProbeMissLimit consecutive misses before recovery may start, so it
// reports the actual probe message count, the measured kill-to-recovery
// detection latency, and the detector's false-suspicion margin.
func ablationDetection(out io.Writer, sz harness.Size, nodes int) int {
	t := &table{out: out}
	fmt.Fprintf(out, "Ablation: failure detection (extended protocol, FFT + mid-run failure, %d nodes x 1, size=%s)\n", nodes, sz)
	fmt.Fprintf(out, "%-8s %12s %14s %14s %11s %8s %8s %11s\n",
		"detect", "timeout ms", "no-failure ms", "failure ms", "detect ms", "probes", "acks", "false susp")
	for _, det := range []model.DetectionMode{model.DetectOracle, model.DetectProbe} {
		for _, tmo := range []int64{500_000, 2_000_000, 8_000_000, 32_000_000} {
			c := harness.Config{
				App: "fft", Size: sz, Mode: svm.ModeFT, Nodes: nodes, ThreadsPerNode: 1, Detection: det,
				Overrides: func(c *model.Config) { c.HeartbeatTimeoutNs = tmo },
			}
			label, failed := t.killed(fmt.Sprintf("%-8s %12.1f", det, float64(tmo)/1e6), c)
			if failed == nil {
				continue
			}
			pt, net := failed.PhaseTimes(), failed.Network()
			t.row(label, nil, "%14.1f %11.2f %8d %8d %11d", float64(failed.ExecTime())/1e6,
				float64(pt.DetectNs-pt.KillNs)/1e6, net.ProbesSent, net.ProbeAcks, net.FalseSuspicions)
		}
	}
	return t.errs
}

// ablationRecovery injects a mid-run failure into every application under
// the extended protocol and reports completion, verification, and the cost
// relative to the failure-free run.
func ablationRecovery(out io.Writer, sz harness.Size, nodes int) int {
	t := &table{out: out}
	fmt.Fprintf(out, "Ablation: single-node failure + recovery (extended protocol, %d nodes x 1, size=%s)\n", nodes, sz)
	fmt.Fprintf(out, "%-14s %14s %14s %10s\n", "app", "no-failure ms", "failure ms", "verified")
	for _, app := range harness.AppNames {
		c := harness.Config{App: app, Size: sz, Mode: svm.ModeFT, Nodes: nodes, ThreadsPerNode: 1}
		if label, failed := t.killed(fmt.Sprintf("%-14s", app), c); failed != nil {
			t.row(label, nil, "%14.1f %10s", float64(failed.ExecTime())/1e6, "yes")
		}
	}
	return t.errs
}

// killed runs c healthy, then again to a verified finish with a node
// other than 0 fail-stopped a third of the way through. It returns the
// killed cluster and label extended by the healthy run's time, or prints
// the ERROR row of whichever run failed and returns nil.
func (t *table) killed(label string, c harness.Config) (string, *svm.Cluster) {
	clean := harness.Run(c)
	if clean.Err != nil {
		t.row(label, clean.Err, "")
		return "", nil
	}
	label += fmt.Sprintf(" %14.1f", float64(clean.ExecNs)/1e6)
	cl, w, err := harness.NewCluster(c)
	if err == nil {
		killAt := clean.ExecNs / 3
		cl.Engine().At(killAt, func() { cl.KillNode(1 + int(killAt)%(c.Nodes-1)) })
		err = finish(cl, w)
	}
	if err != nil {
		t.row(label, err, "")
		return "", nil
	}
	return label, cl
}

// ablationSLO sweeps the open-loop serving workload's offered load under
// the combined storm chaos scenario with a mid-run node kill, for both
// failure detectors: where does each detector keep the tail inside a
// latency SLO, and how long does the store take to re-warm after
// recovery? Rates above the knee saturate the store — open-loop arrivals
// keep coming during the outage, so the backlog (and the tail) grows
// with the offered rate, which is exactly what this sweep exposes.
func ablationSLO(out io.Writer, sz harness.Size, nodes int) int {
	t := &table{out: out}
	reqs := map[harness.Size]int{harness.SizeSmall: 200, harness.SizeMedium: 400, harness.SizePaper: 1000}[sz]
	storm, err := harness.ChaosByName("storm")
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(out, "Ablation: serving tail latency vs offered load (kvserve, storm chaos + mid-run kill, %d nodes x 1, size=%s)\n", nodes, sz)
	fmt.Fprintf(out, "%-8s %10s %9s %10s %10s %10s %10s %10s\n",
		"detect", "gap us", "kreq/s", "p50 ms", "p99 ms", "p999 ms", "recov ms", "rewarm ms")
	for _, det := range []model.DetectionMode{model.DetectOracle, model.DetectProbe} {
		for _, gap := range []int64{200_000, 400_000, 800_000, 1_600_000} {
			sp := serve.DefaultSpec()
			sp.Scenario = "storm"
			sp.Chaos = storm.Chaos
			sp.Detect = det
			sp.Nodes = nodes
			sp.Requests = reqs
			sp.MeanGapNs = gap
			sp.KillAtNs = int64(reqs) * gap * 2 / 5
			r := serve.RunCell(sp)
			label := fmt.Sprintf("%-8s %10.0f", det, float64(gap)/1e3)
			if r.Err != nil {
				t.row(label, r.Err, "")
				continue
			}
			t.row(label, nil, "%9.1f %10.2f %10.2f %10.2f %10.2f %10.2f",
				float64(r.Completed)/(float64(r.ExecNs)/1e9)/1000,
				float64(r.Hist.Percentile(0.5))/1e6, float64(r.Hist.Percentile(0.99))/1e6,
				float64(r.Hist.Percentile(0.999))/1e6,
				float64(r.Phases.RecoveryNs)/1e6, float64(r.Phases.RewarmNs)/1e6)
		}
	}
	return t.errs
}
