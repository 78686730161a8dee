package main

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"runtime"
)

// options are the knobs of one workload run.
type options struct {
	seed    int64
	seconds float64 // budget for the timed passes
	trace   bool
	quick   bool
	outDir  string
}

// workload is one of the four runs people wait on. setup is the cold
// construction of every cell; pass is one full pass the way the CLIs
// drive it; warm is the discarded warm-up pass, which takes the *other*
// route through the same public functions (harness.Run for cells the
// timed passes drive step by step, a step-by-step replica for cells the
// timed passes give to serve.RunCell), so the two routes cross-check
// each other; extras are the traced-run measurements only this workload
// has.
type workload struct {
	name   string
	why    string
	bit    int
	passes int // timed passes on the reference machine; -seconds can cut them, never below 3
	setup  func(o *options) error
	pass   func(o *options, p *pass)
	warm   func(o *options, p *pass)
	extras func(o *options, m *metrics)
}

// cellResult is one cell of one pass.
type cellResult struct {
	name   string
	ops    int // operations the cell stands for
	failed int
	err    error    // the whole cell failed
	note   string   // why some of its ops failed
	fp     string   // fingerprint of the cell's virtual results: must repeat in every pass
	check  string   // what the warm-up route must reproduce
	splits []string // host-time splits (metrics in seconds) the cell's wall time adds to
	host   hostSample
}

// pass collects what one pass over a workload's cells produced.
type pass struct {
	tr     *tracer
	prof   *profiler // traced pass only
	cells  []cellResult
	host   hostSample         // summed over cells; collections between cells excluded
	vals   map[string]float64 // exact metrics: virtual times and counters
	splits map[string]float64 // host times measured inside cells, in the metric's unit; min over passes
}

func newPass(tr *tracer) *pass {
	return &pass{tr: tr, vals: map[string]float64{}, splits: map[string]float64{}}
}

// cell times fn as one cell. fn fills in the result's ops, failed, note,
// fp, check and err.
func (p *pass) cell(name string, fn func(c *cellResult)) {
	c := cellResult{name: name}
	runtime.GC()
	if p.prof != nil {
		p.prof.start()
	}
	h := measure(func() { p.tr.span("cell", name, func() { fn(&c) }) })
	if p.prof != nil {
		p.prof.stop()
	}
	c.host = h
	if c.err != nil {
		c.failed = c.ops
	}
	p.host.add(h)
	p.cells = append(p.cells, c)
}

func (p *pass) seconds() float64 { return p.host.wall.Seconds() }

// runResult is one workload run, as the ledger records it.
type runResult struct {
	workload string
	why      string
	passes   int
	walls    []float64 // seconds, one per timed pass
	ops      int
	failed   int
	digest   string
	m        *metrics
	failures []string
}

// runWorkload measures one workload: set-up repetitions, one discarded
// warm-up pass, P timed passes at GOMAXPROCS=1, and under -trace one
// more pass with spans and a CPU profile plus the micro-probes.
func runWorkload(w *workload, o *options) *runResult {
	// One simulation at a time on one P: on the 2-CPU reference box the
	// goroutine hand-off of sim processes bounces between Ps otherwise
	// and a cell takes 20-45% longer, less repeatably.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := &runResult{workload: w.name, why: w.why, m: newMetrics()}
	m := res.m
	failf := func(format string, args ...any) {
		res.failures = append(res.failures, fmt.Sprintf(format, args...))
	}

	// Set-up: cold construction, at least three times and until a second
	// of it has been measured (it is milliseconds on some workloads). The
	// min is reported, like every host time here: over eight processes
	// serve's min of 40 stayed within 2.70-2.94 ms (one 3.74), the median
	// within 3.22-4.08.
	var setups []float64
	for total := 0.0; len(setups) < 3 || (total < 1 && len(setups) < 40); {
		var err error
		runtime.GC()
		h := measure(func() { err = w.setup(o) })
		if err != nil {
			failf("setup: %v", err)
			res.ops, res.failed = 1, 1
			m.complete(w.bit, o.trace)
			return res
		}
		setups = append(setups, h.wall.Seconds())
		total += h.wall.Seconds()
		if o.quick {
			break
		}
	}
	m.set("setup_s", minOf(setups))

	// Warm-up: the first pass in a process runs up to 2x slow (heap
	// growth, page faults, cold caches), so it is never timed.
	warm := newPass(nil)
	w.warm(o, warm)

	n := w.passes
	if est := warm.seconds(); est > 0 && int(o.seconds/est) < n {
		n = max(int(o.seconds/est), 3)
	}
	if o.quick {
		n = 1
	}
	res.passes = n
	timed := make([]*pass, n)
	for i := range timed {
		timed[i] = newPass(nil)
		w.pass(o, timed[i])
	}
	first, again := timed[0], append([]*pass(nil), timed[1:]...)
	if o.trace {
		traced, err := tracedPass(w, o, m)
		if err != nil {
			failf("trace: %v", err)
		}
		again = append(again, traced)
	}

	// Ops and failures. A cell fails when it errs, when the warm-up route
	// disagrees with the timed route, or when two passes of the same run
	// disagree: determinism is a correctness property.
	h := sha256.New()
	for j, c := range first.cells {
		failed, why := c.failed, c.note
		if c.err != nil {
			why = c.err.Error()
		}
		// Every pass runs the same list of cells, so index j is cell c.
		if wc := warm.cells[j]; wc.err != nil {
			failed, why = c.ops, "warm-up route: "+wc.err.Error()
		} else if wc.check != c.check {
			failed, why = c.ops, fmt.Sprintf("warm-up route disagrees with timed route (%s vs %s)", wc.check, c.check)
		}
		for i, p := range again {
			if p.cells[j].fp != c.fp {
				failed, why = c.ops, fmt.Sprintf("virtual results differ between pass 1 and pass %d", i+2)
			}
		}
		if failed > 0 {
			failf("%s: %d of %d ops failed: %s", c.name, failed, c.ops, why)
		}
		res.ops += c.ops
		res.failed += failed
		fmt.Fprintf(h, "%s=%s\n", c.name, c.fp)
	}
	res.digest = fmt.Sprintf("%x", h.Sum(nil)[:8])

	// Exact metrics come from the first timed pass (every pass agrees or
	// the run has failed above); the warm-up route adds the counters only
	// it can reach.
	for k, v := range warm.vals {
		m.set(k, v)
	}
	for k, v := range first.vals {
		m.set(k, v)
	}

	// Host metrics: the min over the timed passes, taken cell by cell. A
	// cell is deterministic and interference only ever adds to it, so its
	// best repetition is the estimate; the box's noise comes in bursts
	// shorter than a pass (passes of one run differ by 10-20%), and a
	// per-cell min sheds more of them than the best whole pass does.
	var best hostSample
	for j, c := range first.cells {
		b := c.host
		for _, p := range timed[1:] {
			b = b.least(p.cells[j].host)
		}
		best.add(b)
		for _, split := range c.splits {
			m.set(split, m.val[split]+b.wall.Seconds())
		}
	}
	wall, mallocs := best.wall.Seconds(), float64(best.mallocs)
	m.set("wall_s", wall)
	m.set("cpu_s", best.cpu.Seconds())
	m.set("mallocs_m", mallocs/1e6)
	m.set("alloc_mb", float64(best.bytes)/1e6)
	m.set("runtime.gc_cycles", float64(best.gcs))
	m.set("harness.cells", float64(len(first.cells)))

	// How noisy the run was: whole passes, median and spread.
	res.walls = make([]float64, n)
	for i, p := range timed {
		res.walls[i] = p.seconds()
	}
	m.set("harness.wall_median_s", median(res.walls))
	m.set("harness.wall_spread_pct", spreadPct(res.walls))
	for k, v := range warm.splits {
		m.set(k, v) // splits only the warm-up route can reach
	}
	for k := range first.splits {
		least := first.splits[k]
		for _, p := range timed[1:] {
			least = min(least, p.splits[k])
		}
		m.set(k, least)
	}
	if ev := m.val["sim.events"]; ev > 0 {
		m.set("sim.ns_per_event", wall*1e9/ev)
		m.set("sim.events_per_s", ev/wall)
		m.set("sim.allocs_per_event", mallocs/ev)
	}
	if msgs := m.val["vmmc.msgs"]; msgs > 0 {
		m.set("vmmc.host_ns_per_msg", wall*1e9/msgs)
	}

	if o.trace {
		traced := again[len(again)-1]
		fastest := minOf(res.walls) // whole pass against whole pass
		m.set("harness.trace_overhead_pct", 100*(traced.seconds()-fastest)/fastest)
		if w.extras != nil {
			w.extras(o, m)
		}
		runProbes(o, m)
	}
	m.set("harness.peak_rss_mb", peakRSSMB())
	m.complete(w.bit, o.trace)
	return res
}

// spanMetrics maps span names to the S metrics their self time feeds.
var spanMetrics = map[string]string{
	"build":   "apps.build_s",
	"new":     "svm.new_s",
	"run":     "svm.run_s",
	"verify":  "svm.verify_s",
	"runcell": "serve.runcell_s",
}

// tracedPass runs one more pass with spans on and a 100 Hz CPU profile
// of every cell, writes the spans as Chrome trace-event JSON, and folds
// the profile to layers. No end-to-end number is taken from it.
func tracedPass(w *workload, o *options, m *metrics) (*pass, error) {
	tr := newTracer()
	p := newPass(tr)
	p.prof = &profiler{}
	root := tr.begin("workload", w.name)
	pid := tr.begin("pass", "traced")
	w.pass(o, p)
	tr.end(pid)
	tr.end(root)

	self := tr.selfTimes()
	for span, name := range spanMetrics {
		if d, ok := self[span]; ok {
			m.set(name, d.Seconds())
		}
	}
	if p.prof.err != nil {
		return p, p.prof.err
	}
	foldProfile(p.prof.samples).emit(m)
	return p, tr.write(filepath.Join(o.outDir, "trace."+w.name+".json"))
}
