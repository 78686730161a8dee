// Command svmbench regenerates the paper's evaluation: the execution-time
// breakdown figures (7-10), the headline overhead summary, and the
// ablation studies discussed in §4.3 and §5.3.
//
// Usage:
//
//	svmbench -figure 7            # Figure 7 (8x1, 4-component breakdown)
//	svmbench -figure all          # Figures 7-10 + overhead summary
//	svmbench -ablation locks      # queue vs polling lock
//	svmbench -ablation postqueue  # NIC post-queue depth sweep
//	svmbench -ablation checkpoint # checkpoint stack-size sweep
//	svmbench -ablation serial     # release serialization cost
//	svmbench -ablation recovery   # failure injection per app
//	svmbench -ablation pagesize   # coherence-granularity sweep
//	svmbench -ablation detection  # failure-detection timeout sweep
//	svmbench -ablation slo        # serving tail latency vs offered load
//	svmbench -size small|medium|paper
//
// It exits 1 when any cell ends in an ERROR row. The recorded values of
// the grid are gated by the root package's TestGolden, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"ftsvm/internal/apps"
	"ftsvm/internal/harness"
	"ftsvm/internal/model"
	"ftsvm/internal/serve"
	"ftsvm/internal/svm"
)

func main() { os.Exit(run()) }

// run is main behind its exit code, so the profile defers run before
// the process exits: 0 every cell ran, 1 some cell errored, 2 bad usage.
func run() int {
	figure := flag.String("figure", "", "figure to regenerate: 7, 8, 9, 10, overhead, diffs, scaling, all")
	ablation := flag.String("ablation", "", "ablation to run: locks, postqueue, checkpoint, serial, recovery, aggregate, twophase, pagesize, detection, slo")
	size := flag.String("size", "medium", "problem size: small, medium, paper")
	nodes := flag.Int("nodes", 8, "cluster nodes")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the workload to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	sz, err := harness.ParseSize(*size)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svmbench: %v\n", err)
		return 2
	}
	out := os.Stdout

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svmbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "svmbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "svmbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "svmbench: %v\n", err)
			}
		}()
	}

	if *figure == "" && *ablation == "" {
		*figure = "all"
	}

	// failed counts the cells that ended in an ERROR row.
	failed := 0
	switch *figure {
	case "":
	case "7":
		failed += harness.FigureBreakdown(out, sz, *nodes, 1, false)
	case "8":
		failed += harness.FigureBreakdown(out, sz, *nodes, 1, true)
	case "9":
		failed += harness.FigureBreakdown(out, sz, *nodes, 2, false)
	case "10":
		failed += harness.FigureBreakdown(out, sz, *nodes, 2, true)
	case "overhead":
		failed += harness.OverheadSummary(out, sz, *nodes)
	case "diffs":
		failed += harness.DiffAnalysis(out, sz, *nodes)
	case "scaling":
		failed += harness.ScalingSummary(out, sz, []string{"fft", "waternsq", "radix"})
	case "all":
		failed += harness.FigureBreakdown(out, sz, *nodes, 1, false)
		fmt.Fprintln(out)
		failed += harness.FigureBreakdown(out, sz, *nodes, 1, true)
		fmt.Fprintln(out)
		failed += harness.FigureBreakdown(out, sz, *nodes, 2, false)
		fmt.Fprintln(out)
		failed += harness.FigureBreakdown(out, sz, *nodes, 2, true)
		fmt.Fprintln(out)
		failed += harness.OverheadSummary(out, sz, *nodes)
		fmt.Fprintln(out)
		failed += harness.DiffAnalysis(out, sz, *nodes)
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *figure)
		return 2
	}

	switch *ablation {
	case "":
	case "locks":
		failed += ablationLocks(sz, *nodes)
	case "postqueue":
		failed += ablationPostQueue(sz, *nodes)
	case "checkpoint":
		failed += ablationCheckpoint(sz, *nodes)
	case "serial":
		failed += ablationSerial(sz, *nodes)
	case "recovery":
		failed += ablationRecovery(sz, *nodes)
	case "aggregate":
		failed += ablationAggregate(sz, *nodes)
	case "twophase":
		failed += ablationTwoPhase(sz, *nodes)
	case "pagesize":
		failed += ablationPageSize(sz, *nodes)
	case "detection":
		failed += ablationDetection(sz, *nodes)
	case "slo":
		failed += ablationSLO(sz, *nodes)
	default:
		fmt.Fprintf(os.Stderr, "unknown ablation %q\n", *ablation)
		return 2
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "svmbench: %d cell(s) failed\n", failed)
		return 1
	}
	return 0
}

// ablationLocks compares GeNIMA's distributed queue lock against the
// paper's centralized polling lock (§4.3: "the centralized algorithm
// performs at least as well as the distributed queuing lock").
func ablationLocks(sz harness.Size, nodes int) int {
	errs := 0
	fmt.Printf("Ablation: lock algorithm (base protocol, %d nodes, size=%s)\n", nodes, sz)
	fmt.Printf("%-14s %-9s %12s %12s\n", "app", "lock", "total ms", "lock ms")
	for _, app := range []string{"waternsq", "watersp", "radix", "volrend"} {
		for _, algo := range []svm.LockAlgo{svm.LockQueue, svm.LockPolling, svm.LockNIC} {
			r := harness.Run(harness.Config{
				App: app, Size: sz, Mode: svm.ModeBase,
				Nodes: nodes, ThreadsPerNode: 1, LockAlgo: algo,
			})
			if r.Err != nil {
				fmt.Printf("%-14s %-9s ERROR: %v\n", app, algo, r.Err)
				errs++
				continue
			}
			_, _, lock, _ := r.Breakdown.FourWay()
			fmt.Printf("%-14s %-9s %12.1f %12.1f\n", app, algo,
				float64(r.ExecNs)/1e6, float64(lock)/1e6)
		}
	}
	return errs
}

// ablationPostQueue sweeps the NIC post-queue depth, the parameter the
// paper found critical (§5.3.2): diff bursts at releases overflow short
// queues and block the sending processor.
func ablationPostQueue(sz harness.Size, nodes int) int {
	errs := 0
	fmt.Printf("Ablation: NIC post-queue depth (extended protocol, FFT, %d nodes x 2, size=%s)\n", nodes, sz)
	fmt.Printf("%8s %12s %14s\n", "depth", "total ms", "post stalls ms")
	for _, depth := range []int{8, 16, 32, 64, 128, 256} {
		depth := depth
		r := harness.Run(harness.Config{
			App: "fft", Size: sz, Mode: svm.ModeFT, Nodes: nodes, ThreadsPerNode: 2,
			Overrides: func(c *model.Config) { c.PostQueueDepth = depth },
		})
		if r.Err != nil {
			fmt.Printf("%8d ERROR: %v\n", depth, r.Err)
			errs++
			continue
		}
		fmt.Printf("%8d %12.1f %14.1f\n", depth, float64(r.ExecNs)/1e6, float64(r.PostStallNs)/1e6)
	}
	return errs
}

// ablationCheckpoint sweeps the thread stack (checkpoint blob floor) size;
// the paper reports checkpoint overhead proportional to stack size and
// release count.
func ablationCheckpoint(sz harness.Size, nodes int) int {
	errs := 0
	fmt.Printf("Ablation: checkpoint stack size (extended protocol, WaterNsq, %d nodes x 1, size=%s)\n", nodes, sz)
	fmt.Printf("%10s %12s %12s %12s\n", "stack B", "total ms", "ckpt ms", "ckpts")
	for _, stack := range []int{1024, 2048, 4096, 8192, 16384} {
		stack := stack
		r := harness.Run(harness.Config{
			App: "waternsq", Size: sz, Mode: svm.ModeFT, Nodes: nodes, ThreadsPerNode: 1,
			Overrides: func(c *model.Config) { c.MinCheckpointBytes = stack },
		})
		if r.Err != nil {
			fmt.Printf("%10d ERROR: %v\n", stack, r.Err)
			errs++
			continue
		}
		fmt.Printf("%10d %12.1f %12.1f %12d\n", stack,
			float64(r.ExecNs)/1e6, float64(r.Breakdown.Comp[svm.CompCheckpoint])/1e6, r.Checkpoints)
	}
	return errs
}

// ablationSerial quantifies the extended protocol's release serialization
// (§4.4) by imposing it on the base protocol.
func ablationSerial(sz harness.Size, nodes int) int {
	errs := 0
	fmt.Printf("Ablation: release serialization (base protocol, %d nodes x 2, size=%s)\n", nodes, sz)
	fmt.Printf("%-14s %10s %10s %9s\n", "app", "parallel", "serial", "delta")
	for _, app := range []string{"waternsq", "watersp", "radix"} {
		par := harness.Run(harness.Config{App: app, Size: sz, Mode: svm.ModeBase, Nodes: nodes, ThreadsPerNode: 2})
		// SerialReleases is an svm option, not a model one; run directly.
		serR := runSerial(app, sz, nodes)
		if par.Err != nil || serR.Err != nil {
			fmt.Printf("%-14s ERROR par=%v ser=%v\n", app, par.Err, serR.Err)
			errs++
			continue
		}
		fmt.Printf("%-14s %10.1f %10.1f %+8.1f%%\n", app,
			float64(par.ExecNs)/1e6, float64(serR.ExecNs)/1e6,
			100*float64(serR.ExecNs-par.ExecNs)/float64(par.ExecNs))
	}
	return errs
}

func runSerial(app string, sz harness.Size, nodes int) harness.Result {
	cfg := model.Default()
	cfg.Nodes = nodes
	cfg.ThreadsPerNode = 2
	s := apps.Shape{Nodes: nodes, ThreadsPerNode: 2, PageSize: cfg.PageSize}
	w, err := harness.Build(app, sz, s)
	if err != nil {
		return harness.Result{Err: err}
	}
	cl, err := svm.New(svm.Options{
		Config: cfg, Mode: svm.ModeBase, Pages: w.Pages, Locks: w.Locks,
		HomeAssign: w.HomeAssign, Body: w.Body, SerialReleases: true,
	})
	if err != nil {
		return harness.Result{Err: err}
	}
	if err := cl.Run(); err != nil {
		return harness.Result{Err: err}
	}
	if err := w.Err(); err != nil {
		return harness.Result{Err: err}
	}
	return harness.Result{ExecNs: cl.ExecTime(), Breakdown: cl.AvgBreakdown()}
}

// ablationAggregate measures the paper's §6 suggestion of propagating
// fewer, larger diff messages: all of a release's diffs for one home ride
// in one message.
func ablationAggregate(sz harness.Size, nodes int) int {
	errs := 0
	fmt.Printf("Ablation: aggregated diff propagation (extended protocol, %d nodes x 2, size=%s)\n", nodes, sz)
	fmt.Printf("%-14s %-12s %12s %12s %12s\n", "app", "diffs", "total ms", "diff ms", "messages")
	for _, app := range []string{"fft", "lu", "waternsq"} {
		for _, agg := range []bool{false, true} {
			r := harness.Run(harness.Config{
				App: app, Size: sz, Mode: svm.ModeFT, Nodes: nodes, ThreadsPerNode: 2,
				AggregateDiffs: agg,
			})
			if r.Err != nil {
				fmt.Printf("%-14s %-12v ERROR: %v\n", app, agg, r.Err)
				errs++
				continue
			}
			label := "per-page"
			if agg {
				label = "aggregated"
			}
			fmt.Printf("%-14s %-12s %12.1f %12.1f %12d\n", app, label,
				float64(r.ExecNs)/1e6, float64(r.Breakdown.Comp[svm.CompDiff])/1e6, r.MsgsSent)
		}
	}
	return errs
}

// ablationTwoPhase measures what the two-phase diff propagation's
// ordering guarantee costs, by comparing against the deliberately unsafe
// single-phase variant (both copies updated under one fence). The delta
// is the price of being able to roll an interrupted release forward or
// backward.
func ablationTwoPhase(sz harness.Size, nodes int) int {
	errs := 0
	fmt.Printf("Ablation: two-phase vs (unsafe) single-phase propagation (extended, %d nodes x 1, size=%s)\n", nodes, sz)
	fmt.Printf("%-14s %-14s %12s %12s\n", "app", "propagation", "total ms", "diff ms")
	for _, app := range []string{"fft", "lu", "waternsq"} {
		for _, unsafe := range []bool{false, true} {
			r := harness.Run(harness.Config{
				App: app, Size: sz, Mode: svm.ModeFT, Nodes: nodes, ThreadsPerNode: 1,
				UnsafeSinglePhase: unsafe,
			})
			if r.Err != nil {
				fmt.Printf("%-14s %-14v ERROR: %v\n", app, unsafe, r.Err)
				errs++
				continue
			}
			label := "two-phase"
			if unsafe {
				label = "single-phase"
			}
			fmt.Printf("%-14s %-14s %12.1f %12.1f\n", app, label,
				float64(r.ExecNs)/1e6, float64(r.Breakdown.Comp[svm.CompDiff])/1e6)
		}
	}
	return errs
}

// ablationPageSize sweeps the virtual page size, SVM's coherence
// granularity. Larger pages amortize fetch latency for apps with coarse
// sharing (FFT) but amplify false sharing and diff volume for apps with
// fine-grained writes (Water-Nsquared) — and the extended protocol pays
// the diff price twice, so its overhead grows faster with the page size.
func ablationPageSize(sz harness.Size, nodes int) int {
	errs := 0
	fmt.Printf("Ablation: page size (coherence granularity, %d nodes x 1, size=%s)\n", nodes, sz)
	fmt.Printf("%-14s %8s %10s %10s %9s %12s\n", "app", "page B", "base ms", "ext ms", "overhead", "ext diff ms")
	for _, app := range []string{"fft", "waternsq", "radix"} {
		for _, page := range []int{1024, 4096, 16384} {
			page := page
			ov := func(c *model.Config) { c.PageSize = page }
			base := harness.Run(harness.Config{
				App: app, Size: sz, Mode: svm.ModeBase, Nodes: nodes, ThreadsPerNode: 1, Overrides: ov,
			})
			ext := harness.Run(harness.Config{
				App: app, Size: sz, Mode: svm.ModeFT, Nodes: nodes, ThreadsPerNode: 1, Overrides: ov,
			})
			if base.Err != nil || ext.Err != nil {
				fmt.Printf("%-14s %8d ERROR base=%v ext=%v\n", app, page, base.Err, ext.Err)
				errs++
				continue
			}
			fmt.Printf("%-14s %8d %10.1f %10.1f %+8.0f%% %12.1f\n", app, page,
				float64(base.ExecNs)/1e6, float64(ext.ExecNs)/1e6,
				harness.Overhead(base, ext), float64(ext.Breakdown.Comp[svm.CompDiff])/1e6)
		}
	}
	return errs
}

// ablationDetection sweeps the failure-detection (heartbeat probe)
// timeout under both detector implementations. Oracle mode measures only
// the timeout constant (detection is free and instantaneous once a wait
// expires); probe mode pays for real probe/ack traffic and needs
// ProbeMissLimit consecutive misses before recovery may start, so it
// reports the actual probe message count, the measured kill-to-recovery
// detection latency, and the detector's false-suspicion margin.
func ablationDetection(sz harness.Size, nodes int) int {
	errs := 0
	fmt.Printf("Ablation: failure detection (extended protocol, FFT + mid-run failure, %d nodes x 1, size=%s)\n", nodes, sz)
	fmt.Printf("%-8s %12s %14s %14s %11s %8s %8s %11s\n",
		"detect", "timeout ms", "no-failure ms", "failure ms", "detect ms", "probes", "acks", "false susp")
	for _, det := range []model.DetectionMode{model.DetectOracle, model.DetectProbe} {
		for _, tmo := range []int64{500_000, 2_000_000, 8_000_000, 32_000_000} {
			tmo := tmo
			ov := func(c *model.Config) { c.HeartbeatTimeoutNs = tmo }
			clean := harness.Run(harness.Config{
				App: "fft", Size: sz, Mode: svm.ModeFT, Nodes: nodes, ThreadsPerNode: 1,
				Detection: det, Overrides: ov,
			})
			if clean.Err != nil {
				fmt.Printf("%-8s %12.1f ERROR: %v\n", det, float64(tmo)/1e6, clean.Err)
				errs++
				continue
			}
			failed, ks := runWithKill("fft", sz, nodes, clean.ExecNs/3, det, ov)
			if failed.Err != nil {
				fmt.Printf("%-8s %12.1f %14.1f ERROR: %v\n", det, float64(tmo)/1e6, float64(clean.ExecNs)/1e6, failed.Err)
				errs++
				continue
			}
			fmt.Printf("%-8s %12.1f %14.1f %14.1f %11.2f %8d %8d %11d\n",
				det, float64(tmo)/1e6, float64(clean.ExecNs)/1e6, float64(failed.ExecNs)/1e6,
				float64(ks.detectNs-ks.killNs)/1e6, ks.probes, ks.acks, ks.falseSusp)
		}
	}
	return errs
}

// ablationRecovery injects a mid-run failure into every application under
// the extended protocol and reports completion, verification, and the cost
// relative to the failure-free run.
func ablationRecovery(sz harness.Size, nodes int) int {
	errs := 0
	fmt.Printf("Ablation: single-node failure + recovery (extended protocol, %d nodes x 1, size=%s)\n", nodes, sz)
	fmt.Printf("%-14s %14s %14s %10s\n", "app", "no-failure ms", "failure ms", "verified")
	for _, app := range harness.AppNames {
		clean := harness.Run(harness.Config{App: app, Size: sz, Mode: svm.ModeFT, Nodes: nodes, ThreadsPerNode: 1})
		if clean.Err != nil {
			fmt.Printf("%-14s ERROR: %v\n", app, clean.Err)
			errs++
			continue
		}
		failed, _ := runWithKill(app, sz, nodes, clean.ExecNs/3, model.DetectOracle, nil)
		if failed.Err != nil {
			fmt.Printf("%-14s %14.1f ERROR: %v\n", app, float64(clean.ExecNs)/1e6, failed.Err)
			errs++
			continue
		}
		fmt.Printf("%-14s %14.1f %14.1f %10s\n", app,
			float64(clean.ExecNs)/1e6, float64(failed.ExecNs)/1e6, "yes")
	}
	return errs
}

// killStats captures what the failure-injection run revealed about the
// detector: the virtual kill and recovery-start times plus the probe
// traffic the detection cost on the wire.
type killStats struct {
	killNs    int64
	detectNs  int64 // virtual time recovery started (0: never)
	probes    int64
	acks      int64
	falseSusp int64
}

// recoveryClock is a tracer stamping the kill and the first recovery.start
// with virtual time.
type recoveryClock struct {
	cl      *svm.Cluster
	killNs  int64
	startNs int64
}

func (r *recoveryClock) Event(e svm.TraceEvent) {
	switch e.Kind {
	case "kill":
		if r.killNs == 0 {
			r.killNs = r.cl.Engine().Now()
		}
	case "recovery.start":
		if r.startNs == 0 {
			r.startNs = r.cl.Engine().Now()
		}
	}
}

func runWithKill(app string, sz harness.Size, nodes int, killAt int64, det model.DetectionMode, override func(*model.Config)) (harness.Result, killStats) {
	cfg := model.Default()
	cfg.Nodes = nodes
	cfg.ThreadsPerNode = 1
	cfg.Detection = det
	if override != nil {
		override(&cfg)
	}
	s := apps.Shape{Nodes: nodes, ThreadsPerNode: 1, PageSize: cfg.PageSize}
	w, err := harness.Build(app, sz, s)
	if err != nil {
		return harness.Result{Err: err}, killStats{}
	}
	clock := &recoveryClock{}
	cl, err := svm.New(svm.Options{
		Config: cfg, Mode: svm.ModeFT, Pages: w.Pages, Locks: w.Locks,
		HomeAssign: w.HomeAssign, Body: w.Body, Tracer: clock,
	})
	if err != nil {
		return harness.Result{Err: err}, killStats{}
	}
	clock.cl = cl
	ks := func() killStats {
		return killStats{
			killNs: clock.killNs, detectNs: clock.startNs,
			probes: cl.Network().ProbesSent, acks: cl.Network().ProbeAcks,
			falseSusp: cl.Network().FalseSuspicions,
		}
	}
	cl.Engine().At(killAt, func() { cl.KillNode(1 + int(killAt)%(nodes-1)) })
	if err := cl.Run(); err != nil {
		return harness.Result{Err: err}, ks()
	}
	if !cl.Finished() {
		return harness.Result{Err: fmt.Errorf("did not finish after failure")}, ks()
	}
	if err := w.Err(); err != nil {
		return harness.Result{Err: fmt.Errorf("verification failed: %w", err)}, ks()
	}
	return harness.Result{ExecNs: cl.ExecTime()}, ks()
}

// ablationSLO sweeps the open-loop serving workload's offered load under
// the combined storm chaos scenario with a mid-run node kill, for both
// failure detectors: where does each detector keep the tail inside a
// latency SLO, and how long does the store take to re-warm after
// recovery? Rates above the knee saturate the store — open-loop arrivals
// keep coming during the outage, so the backlog (and the tail) grows
// with the offered rate, which is exactly what this sweep exposes.
func ablationSLO(sz harness.Size, nodes int) int {
	errs := 0
	reqs := map[harness.Size]int{harness.SizeSmall: 200, harness.SizeMedium: 400, harness.SizePaper: 1000}[sz]
	storm, err := harness.ChaosByName("storm")
	if err != nil {
		panic(err)
	}
	fmt.Printf("Ablation: serving tail latency vs offered load (kvserve, storm chaos + mid-run kill, %d nodes x 1, size=%s)\n", nodes, sz)
	fmt.Printf("%-8s %10s %9s %10s %10s %10s %10s %10s\n",
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
			if r.Err != nil {
				fmt.Printf("%-8s %10.0f ERROR: %v\n", det, float64(gap)/1e3, r.Err)
				errs++
				continue
			}
			tput := float64(r.Completed) / (float64(r.ExecNs) / 1e9) / 1000
			fmt.Printf("%-8s %10.0f %9.1f %10.2f %10.2f %10.2f %10.2f %10.2f\n",
				det, float64(gap)/1e3, tput,
				float64(r.Hist.Percentile(0.5))/1e6, float64(r.Hist.Percentile(0.99))/1e6,
				float64(r.Hist.Percentile(0.999))/1e6,
				float64(r.Phases.RecoveryNs)/1e6, float64(r.Phases.RewarmNs)/1e6)
		}
	}
	return errs
}
