// Command bench is the repository's one bench ledger: the four runs
// people wait on — grid, scale, sweep, serve — each measured end to end
// (host time, allocation, virtual time) and layer by layer (counters,
// CPU-profile shares, span self times, micro-probes), every layer timed
// from outside through its public functions. See README.md for every
// metric and BENCHMARK.json for the contract the driver holds it to.
//
//	bash bench/run.sh -workload <grid|scale|sweep|serve|all> [-seed N]
//	    [-seconds S] [-trace 0|1] [-selfcheck] [-quick] [-out dir]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"ftsvm/internal/harness"
	"ftsvm/internal/svm"
)

// commit is stamped by run.sh (-ldflags -X); a bare `go run` leaves it.
var commit = "unknown"

func workloads() []*workload {
	return []*workload{gridWorkload(), scaleWorkload(), sweepWorkload(), serveWorkload()}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// prime makes the virtual results independent of which workloads a
// process runs, and in what order. They are not, on their own: a
// checkpoint's modelled cost is the length of its gob blob, encoding/gob
// numbers types process-wide in order of first use, and a type id past 63
// takes one more byte — so the same counter cell ran 4 229 433 virtual ns
// in a fresh process and 4 229 513 after the six SPLASH-2 state types had
// been seen. Running one tiny extended-protocol cell per state type, in
// one fixed order, pins the numbering before anything is measured.
func prime() error {
	for _, app := range append(append([]string(nil), harness.AppNames...), "counter", "kvmicro", "kvserve") {
		r := harness.Run(harness.Config{App: app, Size: harness.SizeSmall, Mode: svm.ModeFT, Nodes: 2, ThreadsPerNode: 1})
		if r.Err != nil {
			return fmt.Errorf("priming %s: %w", app, r.Err)
		}
	}
	return nil
}

// run is main with its environment passed in. Exit codes: 0 all correct,
// 1 a failed op, a missing metric or a -selfcheck violation, 2 bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "bench: "+format+"\n", a...)
		return 2
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	name := fs.String("workload", "all", "grid, scale, sweep, serve or all")
	seed := fs.Int64("seed", 1, "input seed, >= 1")
	seconds := fs.Float64("seconds", 20, "budget for the timed passes; cuts their number, never below 3")
	trace := fs.Int("trace", 0, "1: add a traced pass (spans, CPU profile) and the micro-probes")
	selfcheck := fs.Bool("selfcheck", false, "run twice and compare the two runs within the bounds")
	quick := fs.Bool("quick", false, "tiny sizes, one pass (for tests)")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for ledger.ndjson and trace.<workload>.json")
	if err := fs.Parse(args); err != nil {
		return usage("%v", err)
	}
	var selected []*workload
	for _, w := range workloads() {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected argument %q", fs.Arg(0))
	case len(selected) == 0:
		return usage("unknown -workload %q (want grid, scale, sweep, serve or all)", *name)
	case *seed < 1:
		return usage("-seed %d: need >= 1", *seed)
	case !(*seconds > 0):
		return usage("-seconds %g: need > 0", *seconds)
	case *trace != 0 && *trace != 1:
		return usage("-trace %d: need 0 or 1", *trace)
	}
	o := &options{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, outDir: *out}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return usage("-out: %v", err)
	}
	ledger, err := os.OpenFile(filepath.Join(o.outDir, "ledger.ndjson"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return usage("-out: %v", err)
	}

	if err := prime(); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range selected {
		runs := []*runResult{runWorkload(w, o)}
		if *selfcheck {
			runs = append(runs, runWorkload(w, o))
		}
		ok := true
		for _, res := range runs {
			ok = report(stdout, res, o) && ok
			if err := appendLedger(ledger, res, o); err != nil {
				fmt.Fprintf(stderr, "bench: ledger: %v\n", err)
				ok = false
			}
		}
		if *selfcheck {
			ok = compareRuns(stdout, runs[0], runs[1]) && ok
		}
		if err := finalLine(stdout, runs[len(runs)-1], o, ok); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			ok = false
		}
		if !ok {
			code = 1
		}
	}
	if err := ledger.Close(); err != nil {
		fmt.Fprintf(stderr, "bench: ledger: %v\n", err)
		code = 1
	}
	return code
}

// report prints one run's ledger page and says whether it was correct:
// no failed op, and under -trace no metric left unmeasured.
func report(w io.Writer, res *runResult, o *options) bool {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: seed %d, %d timed pass(es) after 1 warm-up, GOMAXPROCS=1 of %d CPUs, commit %s ==\n",
		res.workload, o.seed, res.passes, runtime.NumCPU(), commit)
	fmt.Fprintf(&b, " why: %s\n", res.why)
	fmt.Fprintf(&b, " end to end (host: min over passes, cell by cell; pass walls %.4g s, median %.4g s, spread %.2g%%)\n",
		res.walls, res.m.val["harness.wall_median_s"], res.m.val["harness.wall_spread_pct"])
	printMetrics(&b, res.m, clsE2E)
	printMetrics(&b, res.m, clsGate)
	fmt.Fprintf(&b, " per layer (C counter, P profile share, S span self time, M micro-probe)\n")
	printMetrics(&b, res.m, clsLayer)
	for _, f := range res.failures {
		fmt.Fprintf(&b, " FAILED %s\n", f)
	}
	fmt.Fprintf(&b, " ops %d  failed %d  digest %s\n", res.ops, res.failed, res.digest)
	io.WriteString(w, b.String())
	return res.failed == 0 && len(res.failures) == 0 && !(o.trace && len(res.m.absent) > 0)
}

// ledgerLine is one appended NDJSON record.
type ledgerLine struct {
	Commit     string             `json:"commit"`
	Go         string             `json:"go"`
	NProc      int                `json:"nproc"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Passes     int                `json:"passes"`
	Trace      bool               `json:"trace"`
	Quick      bool               `json:"quick,omitempty"`
	Ops        int                `json:"ops"`
	Failed     int                `json:"failed"`
	Digest     string             `json:"digest"`
	Metrics    map[string]float64 `json:"metrics"`
	Absent     map[string]string  `json:"absent,omitempty"`
}

func appendLedger(f *os.File, res *runResult, o *options) error {
	blob, err := json.Marshal(ledgerLine{
		Commit: commit, Go: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: 1,
		Workload: res.workload, Seed: o.seed, Passes: res.passes, Trace: o.trace, Quick: o.quick,
		Ops: res.ops, Failed: res.failed, Digest: res.digest,
		Metrics: res.m.val, Absent: res.m.absent,
	})
	if err != nil {
		return err
	}
	_, err = f.Write(append(blob, '\n'))
	return err
}

// finalLine prints the one JSON object the driver reads: with -trace 0
// every end_to_end metric of BENCHMARK.json, with -trace 1 every
// per_layer metric.
func finalLine(w io.Writer, res *runResult, o *options, ok bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, d := range catalog {
		if (d.Class == clsE2E) == o.trace {
			continue
		}
		if v, present := res.m.val[d.Name]; present {
			ms[d.Name] = value{v, d.Unit}
		}
	}
	blob, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{ok, res.ops, res.failed, ms})
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

// compareRuns is -selfcheck's verdict on two back-to-back runs of the
// same code: every exact metric and the digest must be identical, every
// other end-to-end metric within its bound (set-up also passes within
// 0.05 s: it is tens of milliseconds on some workloads).
func compareRuns(w io.Writer, a, b *runResult) bool {
	ok := a.digest == b.digest
	fmt.Fprintf(w, "== selfcheck %s: digest %s vs %s ==\n", a.workload, a.digest, b.digest)
	for _, d := range catalog {
		va, ina := a.m.val[d.Name]
		vb, inb := b.m.val[d.Name]
		if !ina || !inb {
			continue
		}
		switch {
		case d.Exact:
			if va != vb {
				ok = false
				fmt.Fprintf(w, "  %-34s %g != %g  DIFFERS (must be identical)\n", d.Name, va, vb)
			}
		case d.Class == clsE2E:
			rel := math.Abs(vb-va) / math.Min(va, vb)
			verdict := "ok"
			if rel > d.Same && !(d.Name == "setup_s" && math.Abs(vb-va) <= 0.05) {
				ok, verdict = false, "EXCEEDS"
			}
			fmt.Fprintf(w, "  %-34s %.6g vs %.6g  %+.2f%% (bound %.0f%%) %s\n", d.Name, va, vb, 100*(vb-va)/va, 100*d.Same, verdict)
		}
	}
	return ok
}
