package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ftsvm/internal/harness"
	"ftsvm/internal/svm"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  *float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return mf
}

// resultLine is the driver-facing last line of a run.
type resultLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return r
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesCatalog holds BENCHMARK.json and the catalog to each
// other: same names in the same class, same unit, direction and bound,
// and everything within the driver's limits.
func TestManifestMatchesCatalog(t *testing.T) {
	mf := readManifest(t)
	if strings.Join(mf.Command, " ") != "bash bench/run.sh" || strings.Join(mf.Paths, " ") != "bench" || mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("command %v, paths %v, run_seconds %d", mf.Command, mf.Paths, mf.RunSeconds)
	}
	if len(mf.Workloads) != 4 || len(mf.EndToEnd) > 16 || len(mf.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer metrics: want 4, <= 16, <= 128",
			len(mf.Workloads), len(mf.EndToEnd), len(mf.PerLayer))
	}
	for i, w := range workloads() {
		if mf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, bench has %q", i, mf.Workloads[i].Name, w.name)
		}
		if why := mf.Workloads[i].Why; why != w.why || why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why must be the bench's, one line of at most 200 characters", w.name)
		}
	}
	seen := map[string]bool{}
	check := func(mm manifestMetric, e2e bool) {
		d, ok := findMetric(mm.Name)
		switch {
		case !nameRE.MatchString(mm.Name):
			t.Errorf("%s: bad metric name", mm.Name)
		case seen[mm.Name]:
			t.Errorf("%s: listed twice", mm.Name)
		case !ok:
			t.Errorf("%s: in BENCHMARK.json, not in the catalog", mm.Name)
		case (d.Class == clsE2E) != e2e:
			t.Errorf("%s: listed in the wrong class", mm.Name)
		case d.Unit != mm.Unit || d.Better != mm.Better:
			t.Errorf("%s: BENCHMARK.json says %s/%s, catalog %s/%s", mm.Name, mm.Unit, mm.Better, d.Unit, d.Better)
		case e2e && (mm.Bound == nil || *mm.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
			t.Errorf("%s: bound must be the catalog's %g and within (0, 0.25]", mm.Name, d.Bound)
		case !e2e && mm.Bound != nil:
			t.Errorf("%s: per-layer metrics have no bound", mm.Name)
		}
		seen[mm.Name] = true
	}
	for _, mm := range mf.EndToEnd {
		check(mm, true)
	}
	for _, mm := range mf.PerLayer {
		check(mm, false)
	}
	for _, d := range catalog {
		if !seen[d.Name] {
			t.Errorf("%s: in the catalog, not in BENCHMARK.json", d.Name)
		}
	}
}

// TestQuickRunEmitsEveryMetric runs all four workloads at -quick sizes
// with the traced pass and checks that each emits exactly the names
// BENCHMARK.json promises, in both -trace modes, with the layer shares
// summing to 100% and the span files written.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	mf := readManifest(t)
	o := &options{seed: 1, seconds: 1, trace: true, quick: true, outDir: t.TempDir()}
	for _, w := range workloads() {
		res := runWorkload(w, o)
		if res.failed != 0 || len(res.failures) != 0 || res.ops == 0 {
			t.Errorf("%s: ops %d, failed %d, failures %v", w.name, res.ops, res.failed, res.failures)
		}
		if len(res.m.absent) != 0 {
			t.Errorf("%s: absent metrics: %v", w.name, res.m.absent)
		}
		for _, mode := range []struct {
			trace bool
			want  []manifestMetric
		}{{false, mf.EndToEnd}, {true, mf.PerLayer}} {
			var out bytes.Buffer
			if err := finalLine(&out, res, &options{trace: mode.trace}, true); err != nil {
				t.Fatal(err)
			}
			got := lastLine(t, out.String())
			if got.Attempted != res.ops || got.Attempted < 1 || got.Failed != 0 || !got.Correct {
				t.Errorf("%s: result line says %+v", w.name, got)
			}
			for _, mm := range mode.want {
				v, ok := got.Metrics[mm.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w.name, mode.trace, mm.Name)
				case v.Unit != mm.Unit:
					t.Errorf("%s: %s emitted in %s, want %s", w.name, mm.Name, v.Unit, mm.Unit)
				case !mode.trace && !(v.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, mm.Name, v.Value)
				}
			}
			if len(got.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json lists %d", w.name, mode.trace, len(got.Metrics), len(mode.want))
			}
		}
		sum := res.m.val["runtime.sched_share"] + res.m.val["runtime.gc_share"] + res.m.val["runtime.other_share"]
		for _, l := range layers {
			sum += res.m.val[l+".cpu_share"]
		}
		if math.Abs(sum-100) > 1 {
			t.Errorf("%s: layer shares sum to %.2f%%, want 100 +- 1", w.name, sum)
		}
		blob, err := os.ReadFile(filepath.Join(o.outDir, "trace."+w.name+".json"))
		var tr struct{ TraceEvents []chromeEvent }
		if err != nil || json.Unmarshal(blob, &tr) != nil || len(tr.TraceEvents) < 3 {
			t.Errorf("%s: span file missing or empty (%v)", w.name, err)
		}
	}
}

// TestFailingCellIsCounted: a cell that cannot run is a failed op, and
// the cells around it still count as attempted and correct.
func TestFailingCellIsCounted(t *testing.T) {
	cells := func(o *options) []cellSpec {
		good := harness.Config{App: "counter", Size: harness.SizeSmall, Mode: svm.ModeFT, Nodes: 4, ThreadsPerNode: 1}
		bad := good
		bad.App = "no-such-app"
		return []cellSpec{{name: "good", cfg: seeded(good, o.seed)}, {name: "bad", cfg: seeded(bad, o.seed)}}
	}
	w := cellsWorkload("grid", "", onGrid, 1, cells, func(*pass, []cellOut) {})
	w.setup = func(*options) error { return nil } // set-up would refuse the bad cell before any pass ran
	res := runWorkload(w, &options{seed: 1, seconds: 1, quick: true})
	if res.ops != 2 || res.failed != 1 || len(res.failures) != 1 || !strings.Contains(res.failures[0], "no-such-app") {
		t.Fatalf("ops %d, failed %d, failures %v: want 2, 1 and the bad cell named", res.ops, res.failed, res.failures)
	}
}

// TestCLI drives run() the way the driver and a user would.
func TestCLI(t *testing.T) {
	dir := t.TempDir()
	notDir := filepath.Join(dir, "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]string{
		{"-workload", "nope"},
		{"-seed", "0"},
		{"-seed", "-3"},
		{"-seconds", "0"},
		{"-trace", "2"},
		{"-trace"},
		{"-no-such-flag"},
		{"extra"},
		{"-out", filepath.Join(notDir, "out")},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append(bad, "-quick"), &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and a one-line error", bad, code, stdout.String(), stderr.String())
		}
	}

	// The driver's spelling of the flags, with -selfcheck on top. At
	// -quick sizes a pass is a tenth of a second, so the host-time bounds
	// may or may not hold (exit 0 or 1); the exact metrics must.
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "serve", "--seed", "3", "--seconds", "1", "--trace", "0", "-quick", "-selfcheck", "-out", dir}
	if code := run(args, &stdout, &stderr); code > 1 || stderr.Len() != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if got := lastLine(t, stdout.String()); got.Failed != 0 || got.Attempted != 4800 || len(got.Metrics) == 0 {
		t.Errorf("result line %+v", got)
	}
	if out := stdout.String(); !strings.Contains(out, "== selfcheck serve") || strings.Contains(out, "DIFFERS") {
		t.Errorf("selfcheck report missing, or an exact metric differs:\n%s", out)
	}
	ledger, err := os.ReadFile(filepath.Join(dir, "ledger.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(ledger)), "\n")
	if len(lines) != 2 {
		t.Fatalf("ledger has %d lines, want one per run", len(lines))
	}
	var a, b ledgerLine
	if json.Unmarshal([]byte(lines[0]), &a) != nil || json.Unmarshal([]byte(lines[1]), &b) != nil {
		t.Fatalf("ledger lines do not parse:\n%s", ledger)
	}
	if a.Digest == "" || a.Digest != b.Digest || a.Seed != 3 || a.Workload != "serve" || a.Metrics["virtual_ms"] != b.Metrics["virtual_ms"] {
		t.Errorf("ledger lines disagree or are incomplete:\n%s", ledger)
	}
}

// TestCompareRuns: -selfcheck's verdict fails on any exact difference and
// on a host-time difference beyond the bound, and on nothing else.
func TestCompareRuns(t *testing.T) {
	mk := func(wall, virtual float64, digest string) *runResult {
		m := newMetrics()
		m.set("wall_s", wall)
		m.set("virtual_ms", virtual)
		m.set("sim.switch_ns", wall*1000) // per-layer, not exact: never compared
		return &runResult{workload: "grid", digest: digest, m: m}
	}
	for _, c := range []struct {
		name string
		b    *runResult
		want bool
	}{
		{"same", mk(1.05, 10, "d"), true},
		{"wall within bound", mk(1.2, 10, "d"), true},
		{"wall beyond bound", mk(1.3, 10, "d"), false},
		{"virtual moved", mk(1, 10.000001, "d"), false},
		{"digest moved", mk(1, 10, "e"), false},
	} {
		var out bytes.Buffer
		if got := compareRuns(&out, mk(1, 10, "d"), c.b); got != c.want {
			t.Errorf("%s: compareRuns = %v, want %v\n%s", c.name, got, c.want, out.String())
		}
	}
}

// TestFoldProfile folds a canned stack dump: innermost repository frame
// wins, the bench's own frames are harness, and stacks with no
// repository frame split into scheduler, collector and other.
func TestFoldProfile(t *testing.T) {
	const in = repoPrefix
	r := foldProfile([]profSample{
		{[]string{"runtime.memmove", in + "mem.(*Diff).Apply", in + "svm.(*node).applyDiff", in + "sim.(*Engine).SpawnOn.func1"}, 10},
		{[]string{"runtime.chanrecv", in + "sim.(*Proc).park", in + "sim.(*Proc).Advance", in + "svm.(*Thread).Compute", in + "apps.FFT.func1"}, 20},
		{[]string{"runtime.mallocgc", in + "proto.VectorTime.Clone", in + "svm.(*auditor).checkPages", in + "sim.(*Engine).Run"}, 5},
		{[]string{in + "svm.(*auditor).checkLocks", in + "sim.(*Engine).Run", "main.drive"}, 15},
		{[]string{in + "sim.(*eventHeap).pop", in + "sim.(*Engine).Run"}, 8},
		{[]string{"encoding/gob.(*Encoder).Encode", in + "checkpoint.Encode", in + "svm.(*Thread).checkpoint"}, 4},
		{[]string{in + "model.Default", "main.construct"}, 1},
		{[]string{"crypto/sha256.block", "main.(*clusterStats).add"}, 2},
		{[]string{"runtime.futex", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, 12},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, 9},
		{[]string{"runtime/pprof.(*profileBuilder).addCPUData", "runtime/pprof.profileWriter"}, 3},
	})
	want := foldResult{
		total: 89,
		layer: map[string]int64{"mem": 10, "sim": 28, "proto": 5, "svm": 15, "checkpoint": 4, "harness": 3},
		sched: 12, gc: 9, other: 3, switches: 20, audit: 20,
	}
	if r.total != want.total || r.sched != want.sched || r.gc != want.gc || r.other != want.other ||
		r.switches != want.switches || r.audit != want.audit {
		t.Errorf("fold = %+v, want %+v", r, want)
	}
	for _, l := range layers {
		if r.layer[l] != want.layer[l] {
			t.Errorf("layer %s: %d samples, want %d", l, r.layer[l], want.layer[l])
		}
	}
	m := newMetrics()
	r.emit(m)
	if got := m.val["sim.switch_share"]; math.Abs(got-100*20.0/89) > 1e-9 {
		t.Errorf("sim.switch_share = %g", got)
	}

	empty := newMetrics()
	foldProfile(nil).emit(empty)
	if empty.absent["sim.cpu_share"] == "" || len(empty.val) != 0 {
		t.Errorf("an empty profile must leave the shares absent with a reason, got %v / %v", empty.val, empty.absent)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{5, 3, 4, 10}
	if minOf(xs) != 3 || median(xs) != 4.5 || median(xs[:3]) != 4 || spreadPct(xs) != 100*7/4.5 {
		t.Errorf("min %g, median %g / %g, spread %g", minOf(xs), median(xs), median(xs[:3]), spreadPct(xs))
	}
	if xs[0] != 5 {
		t.Error("median sorted its input in place")
	}
	if spreadPct([]float64{0, 0}) != 0 {
		t.Error("spread of zeros")
	}

	tr := newTracer()
	root := tr.begin("cell", "")
	child := tr.begin("run", "")
	tr.end(child)
	tr.end(root)
	tr.spans[root].start, tr.spans[root].end = 0, 100
	tr.spans[child].start, tr.spans[child].end = 10, 70
	if self := tr.selfTimes(); self["cell"] != 40 || self["run"] != 60 {
		t.Errorf("self times %v, want cell 40, run 60", self)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", "")) // untraced passes: no-ops
}
