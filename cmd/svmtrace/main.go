// Command svmtrace runs an application and streams the protocol's
// flight-recorder events (releases, phases, checkpoints, barriers, lock
// traffic, failures, recovery milestones) with virtual timestamps — the
// tool for inspecting protocol behaviour around an injected failure.
//
// The stream is the per-node flight recorder of internal/obs: svmtrace
// attaches a sink to the recorder and filters the live event stream; the
// same ring buffers keep the last -ring events per node, dumped after the
// run with -dump.
//
// Usage:
//
//	svmtrace -app radix -size small -kill 2 -killat 3ms
//	svmtrace -app fft -filter recovery            # only recovery events
//	svmtrace -app lu -filter "release.phase1,kill" -node 1
//	svmtrace -app waternsq -filter lock -limit 50 -dump
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ftsvm/internal/apps"
	"ftsvm/internal/harness"
	"ftsvm/internal/model"
	"ftsvm/internal/obs"
	"ftsvm/internal/svm"
)

type printer struct {
	kinds   map[string]bool
	node    int
	emitted int
	limit   int
}

func (p *printer) event(e obs.Event) {
	if p.limit > 0 && p.emitted >= p.limit {
		return
	}
	kind := e.Kind.String()
	if len(p.kinds) > 0 {
		match := false
		for k := range p.kinds {
			if strings.HasPrefix(kind, k) {
				match = true
				break
			}
		}
		if !match {
			return
		}
	}
	if p.node >= 0 && int(e.Node) != p.node {
		return
	}
	p.emitted++
	fmt.Printf("%12.3fms  %-18s node=%d thread=%d seq=%d\n",
		float64(e.TimeNs)/1e6, kind, e.Node, e.Thread, e.Seq)
}

func main() {
	app := flag.String("app", "radix", "application (fft, lu, waternsq, watersp, radix, volrend, kvstore)")
	size := flag.String("size", "small", "problem size: small, medium, paper")
	mode := flag.String("mode", "extended", "protocol: base, extended")
	nodes := flag.Int("nodes", 4, "cluster nodes")
	threads := flag.Int("threads", 1, "threads per node")
	kill := flag.Int("kill", -1, "node to fail (-1: none)")
	killAt := flag.Duration("killat", 3*time.Millisecond, "virtual failure time")
	filter := flag.String("filter", "", "comma-separated event-kind prefixes (empty: all)")
	node := flag.Int("node", -1, "only events from this node (-1: all)")
	limit := flag.Int("limit", 2000, "maximum events to print (0: unlimited)")
	ring := flag.Int("ring", 64, "flight-recorder ring size per node")
	dump := flag.Bool("dump", false, "dump each node's flight-recorder ring after the run")
	audit := flag.Bool("audit", false, "enable the online invariant auditor")
	flag.Parse()

	cfg := model.Default()
	cfg.Nodes = *nodes
	cfg.ThreadsPerNode = *threads

	var m svm.Mode
	switch *mode {
	case "base":
		m = svm.ModeBase
	case "extended":
		m = svm.ModeFT
	default:
		fmt.Fprintf(os.Stderr, "svmtrace: unknown -mode %q (want base, extended)\n", *mode)
		os.Exit(2)
	}
	s := apps.Shape{Nodes: cfg.Nodes, ThreadsPerNode: cfg.ThreadsPerNode, PageSize: cfg.PageSize}
	w, err := harness.Build(*app, harness.Size(*size), s)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	pr := &printer{node: *node, limit: *limit, kinds: map[string]bool{}}
	for _, k := range strings.Split(*filter, ",") {
		if k = strings.TrimSpace(k); k != "" {
			pr.kinds[k] = true
		}
	}

	cl, err := svm.New(svm.Options{
		Config: cfg, Mode: m, Pages: w.Pages, Locks: w.Locks,
		HomeAssign: w.HomeAssign, Body: w.Body,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rec := cl.EnableFlightRecorder(*ring)
	rec.SetSink(pr.event)
	if *audit {
		cl.EnableAuditor()
	}
	if *kill >= 0 {
		cl.Engine().At(killAt.Nanoseconds(), func() { cl.KillNode(*kill) })
	}
	if err := cl.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "simulation error:", err)
		if *dump {
			rec.Dump(os.Stderr, *ring)
		}
		os.Exit(1)
	}
	status := "verified OK"
	if err := w.Err(); err != nil {
		status = "VERIFICATION FAILED: " + err.Error()
	}
	fmt.Printf("--- %s finished in %.2f ms virtual; %s; %d events printed\n",
		w.Name, float64(cl.ExecTime())/1e6, status, pr.emitted)
	if *dump {
		rec.Dump(os.Stdout, *ring)
	}
}
