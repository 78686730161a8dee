package main

import (
	"fmt"
	"sort"
	"strings"

	"ftsvm/internal/harness"
)

// Workload bits: which workloads a metric is measured on. On the others
// it is reported as 0 ("this workload does not use the layer"), never as
// absent.
const (
	onGrid = 1 << iota
	onScale
	onSweep
	onServe
	onCells = onGrid | onScale           // harness cells driven step by step
	onClus  = onGrid | onScale | onServe // workloads that can reach their *svm.Cluster
	onAll   = onGrid | onScale | onSweep | onServe
)

// Metric classes. clsE2E metrics are BENCHMARK.json's end_to_end list:
// measured on every workload, never 0, regression-bounded. clsGate
// metrics are end-to-end too (a user of the modelled cluster sees them)
// but exist on some workloads only, so BENCHMARK.json has to list them
// under per_layer; -selfcheck and the baseline A/A pair still hold them
// to bit-identity. clsLayer metrics decompose one layer.
const (
	clsE2E = iota
	clsGate
	clsLayer
)

// metricDef is one row of the ledger's contract: later issues cite these
// names. Src says how the number is obtained:
//
//	H  host time or allocation of one untraced pass (min over passes, cell by cell)
//	V  virtual time, deterministic for a seed
//	C  counter from the untraced passes, or a counter divided by host time
//	P  share of 100 Hz CPU-profile samples (traced pass)
//	S  span self time (traced pass)
//	M  micro-probe on seeded inputs (traced run)
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Src    byte    // H V C P S M
	Bound  float64 // clsE2E only: share of the parent's median it may worsen by, runs at different seeds
	Same   float64 // clsE2E host metrics: share two same-seed runs of one build may differ by
	Class  int
	On     int
	// Exact metrics (virtual times and pure counters) are deterministic
	// for a seed: two same-seed runs must agree bit for bit.
	Exact bool
}

// layers are the buckets of the profile fold, in report order. Each gets
// a <layer>.cpu_share metric; the three runtime.* buckets take samples
// with no repository frame on their stack.
var layers = []string{"sim", "vmmc", "mem", "proto", "checkpoint", "svm", "apps", "obs", "oracle", "explore", "serve", "harness"}

var catalog = buildCatalog()

func buildCatalog() []metricDef {
	var c []metricDef
	add := func(class int, src byte, exact bool, on int, better, unit string, names ...string) {
		for _, n := range names {
			c = append(c, metricDef{Name: n, Unit: unit, Better: better, Src: src, Class: class, On: on, Exact: exact})
		}
	}
	// count: a C metric read straight off a deterministic counter.
	count := func(on int, better, unit string, names ...string) {
		add(clsLayer, 'C', true, on, better, unit, names...)
	}
	// layer: any other per-layer metric; none of them repeats exactly.
	layer := func(src byte, on int, better, unit string, names ...string) {
		add(clsLayer, src, false, on, better, unit, names...)
	}

	// End to end, every workload. Host time and allocation, then the one
	// virtual-time metric every workload has. Bound is BENCHMARK.json's,
	// for the driver's runs at *different* seeds; Same is what -selfcheck
	// allows two same-seed runs. Host times get the cap, 0.25, in both:
	// the reference box drifts that much between back-to-back runs (the
	// same grid pass took 4.06-5.95 s over one afternoon). Allocation
	// repeats to 0.01% for a seed and virtual time exactly, but both move
	// with the seed (README.md has the measured spreads).
	e2e := func(src byte, unit string, same float64, names ...string) {
		add(clsE2E, src, src == 'V', onAll, "lower", unit, names...)
		for i := len(c) - len(names); i < len(c); i++ {
			c[i].Bound, c[i].Same = 0.25, same
		}
	}
	e2e('H', "s", 0.25, "setup_s", "wall_s", "cpu_s")
	e2e('H', "1e6", 0.02, "mallocs_m")
	e2e('H', "MB", 0.02, "alloc_mb")
	e2e('V', "ms", 0, "virtual_ms")

	// End to end, workload-specific: all virtual, all exact for a seed.
	add(clsGate, 'V', true, onGrid, "lower", "%", "ft_overhead_pct")
	add(clsGate, 'V', true, onScale|onServe, "lower", "ms", "recovery_ms")
	add(clsGate, 'V', true, onServe, "lower", "ms", "unavail_ms", "lat_p50_ms", "lat_p99_ms")
	add(clsGate, 'V', true, onServe, "higher", "kreq/s", "goodput_krps")

	// sim: the event engine and the process switch.
	count(onAll, "lower", "count", "sim.events")
	layer('C', onAll, "lower", "ns", "sim.ns_per_event")
	layer('C', onAll, "higher", "1/s", "sim.events_per_s")
	layer('C', onAll, "lower", "count", "sim.allocs_per_event")
	layer('P', onAll, "lower", "%", "sim.cpu_share", "sim.switch_share")
	layer('M', onAll, "lower", "ns", "sim.callback_ns", "sim.switch_ns", "sim.event_ns_64k_pending")
	layer('M', onScale, "higher", "x", "sim.workers2_speedup")

	// vmmc: the simulated NIC and wire.
	count(onClus, "lower", "count", "vmmc.msgs")
	count(onClus, "lower", "MB", "vmmc.wire_mb")
	count(onClus, "lower", "ms", "vmmc.post_stall_vms")
	count(onClus, "lower", "count", "vmmc.retransmits", "vmmc.probes_sent", "vmmc.false_suspicions")
	layer('C', onClus, "lower", "ns", "vmmc.host_ns_per_msg")
	layer('P', onAll, "lower", "%", "vmmc.cpu_share")
	layer('M', onAll, "lower", "ns", "vmmc.post_ns", "vmmc.request_ns")

	// mem: twins and diffs.
	count(onClus, "lower", "count", "mem.pages_diffed")
	count(onClus, "lower", "MB", "mem.diff_mb", "mem.twin_mb")
	layer('P', onAll, "lower", "%", "mem.cpu_share")
	layer('M', onAll, "lower", "ns", "mem.diff_sparse_ns", "mem.diff_dense_ns", "mem.apply_ns")

	// proto: vector times and home directories (hashed and flat both
	// probed while both exist).
	count(onClus, "lower", "KB", "proto.dir_kb")
	layer('C', onScale|onServe, "lower", "us", "proto.rehome_wall_us")
	layer('P', onAll, "lower", "%", "proto.cpu_share")
	layer('M', onAll, "lower", "ns", "proto.vt_merge_ns_512", "proto.vt_delta_ns_512", "proto.lookup_ns", "proto.lookup_flat_ns")
	layer('M', onAll, "lower", "us", "proto.rehome_us_512", "proto.rehome_flat_us_512")

	// checkpoint.
	count(onClus, "lower", "count", "checkpoint.count")
	layer('P', onAll, "lower", "%", "checkpoint.cpu_share")
	layer('M', onAll, "lower", "us", "checkpoint.encode_us")

	// svm: the protocol core. The vt_* metrics are the six-way virtual
	// breakdown of the extended cells; the *_wall_s ones split the pass
	// by how the same layer is used.
	count(onClus, "lower", "count", "svm.read_faults", "svm.write_faults", "svm.remote_fetches",
		"svm.invalidations", "svm.intervals", "svm.barrier_episodes", "svm.remote_acquires", "svm.migrated_threads")
	count(onAll, "lower", "count", "svm.recoveries")
	count(onClus, "higher", "%", "svm.vt_compute_pct")
	count(onClus, "lower", "%", "svm.vt_data_pct", "svm.vt_sync_pct", "svm.vt_diff_pct", "svm.vt_protocol_pct", "svm.vt_ckpt_pct")
	layer('P', onAll, "lower", "%", "svm.cpu_share", "svm.audit_share")
	layer('S', onCells, "lower", "s", "svm.new_s", "svm.run_s", "svm.verify_s")
	layer('C', onGrid, "lower", "s", "svm.base_wall_s", "svm.ext_wall_s")
	layer('C', onScale, "lower", "s", "svm.lock512_wall_s", "svm.barrier512_wall_s", "svm.lock512_kill_wall_s", "svm.barrier512_kill_wall_s")

	// apps: application compute.
	layer('P', onAll, "lower", "%", "apps.cpu_share")
	layer('S', onCells, "lower", "s", "apps.build_s")
	for _, app := range harness.AppNames {
		layer('C', onGrid, "lower", "s", "apps.wall_s."+app)
	}

	// Observers and the explorer.
	layer('P', onAll, "lower", "%", "obs.cpu_share")
	layer('M', onAll, "lower", "ns", "obs.record_ns", "obs.hist_record_ns")
	layer('P', onAll, "lower", "%", "oracle.cpu_share")
	layer('M', onAll, "lower", "us", "oracle.replay_us_per_commit")
	count(onSweep, "higher", "count", "explore.boundaries_recorded", "explore.boundaries_swept", "explore.pairs_swept")
	count(onSweep, "lower", "count", "explore.events_per_boundary")
	layer('C', onSweep, "lower", "ms", "explore.ms_per_boundary", "explore.ms_per_pair")
	layer('C', onSweep, "lower", "s", "explore.record_s")
	layer('P', onAll, "lower", "%", "explore.cpu_share")

	// serve: the open-loop serving driver.
	for _, sc := range harness.ChaosScenarios() {
		count(onServe, "lower", "ms", "serve.p99_ms."+sc.Name+".oracle", "serve.p99_ms."+sc.Name+".probe")
	}
	count(onServe, "lower", "ms", "serve.p999_ms", "serve.detect_ms", "serve.rewarm_ms")
	count(onServe, "higher", "count", "serve.requests", "serve.completed")
	layer('P', onAll, "lower", "%", "serve.cpu_share")
	layer('S', onServe, "lower", "s", "serve.runcell_s")

	// harness: the drivers (internal/harness, internal/model, this
	// program), and the Go runtime under everything.
	count(onAll, "higher", "count", "harness.cells")
	layer('C', onAll, "lower", "MB", "harness.peak_rss_mb")
	layer('C', onAll, "lower", "s", "harness.wall_median_s")
	layer('C', onAll, "lower", "%", "harness.wall_spread_pct")
	layer('P', onAll, "lower", "%", "harness.cpu_share")
	layer('S', onAll, "lower", "%", "harness.trace_overhead_pct")
	layer('M', onCells, "higher", "x", "harness.rungrid_speedup")
	layer('P', onAll, "lower", "%", "runtime.sched_share", "runtime.gc_share", "runtime.other_share")
	layer('C', onAll, "lower", "count", "runtime.gc_cycles")
	return c
}

func findMetric(name string) (metricDef, bool) {
	for _, m := range catalog {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// metrics is one workload run's result set. A metric the workload should
// produce but could not is absent, with the reason.
type metrics struct {
	val    map[string]float64
	absent map[string]string
}

func newMetrics() *metrics {
	return &metrics{val: map[string]float64{}, absent: map[string]string{}}
}

func (m *metrics) set(name string, v float64) {
	if _, ok := findMetric(name); !ok {
		panic("bench: metric " + name + " is not in the catalog")
	}
	m.val[name] = v
}

func (m *metrics) miss(name, reason string) { m.absent[name] = reason }

// complete fills in what the workload did not set: 0 for metrics of
// layers the workload does not use, absent for the rest. traced says
// whether the P, S and M sources ran at all; in an untraced run they are
// neither measured nor reported.
func (m *metrics) complete(on int, traced bool) {
	for _, d := range catalog {
		if _, ok := m.val[d.Name]; ok {
			continue
		}
		tracedOnly := d.Src == 'P' || d.Src == 'S' || d.Src == 'M'
		switch {
		case tracedOnly && !traced:
		case d.On&on == 0:
			m.val[d.Name] = 0
		case m.absent[d.Name] == "":
			m.absent[d.Name] = "not produced"
		}
	}
}

// Min, median and spread of the timed passes. Host time of a
// deterministic pass only ever has interference added to it, so the
// minimum is the estimate; the other two say how noisy the run was.
func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spreadPct is (max - min) as a percentage of the median.
func spreadPct(xs []float64) float64 {
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	if med := median(xs); med != 0 {
		return 100 * (hi - lo) / med
	}
	return 0
}

// printMetrics writes one class of a run's metrics, one per line.
func printMetrics(w *strings.Builder, m *metrics, class int) {
	for _, d := range catalog {
		if d.Class != class {
			continue
		}
		if v, ok := m.val[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.6g %-7s %c\n", d.Name, v, d.Unit, d.Src)
		} else if why, ok := m.absent[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14s %-7s %c  (%s)\n", d.Name, "absent", d.Unit, d.Src, why)
		}
	}
}
