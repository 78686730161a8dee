package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"ftsvm/internal/model"
	"ftsvm/internal/par"
	"ftsvm/internal/serve"
)

// serveCmd runs the open-loop serving benchmark: a Zipfian GET/PUT
// request stream against the SVM key-value store at a fixed arrival
// rate, swept across the deterministic chaos scenarios and both
// failure-detection modes, with a node killed mid-run. For every cell it
// reports throughput, virtual latency percentiles (p50/p99/p999), and
// the per-phase availability timeline — healthy, undetected failure,
// probe detection, recovery, re-warm, restored — derived from the
// cluster's failure-lifecycle milestones.
//
// Every quantity is virtual time from a deterministic simulation: the
// same flags print the same table. The default matrix is pinned, cell by
// cell, by the root package's TestGolden (the serve/ rows).
//
//	svm serve                              # 6 scenarios x {oracle, probe}
//	svm serve -scenarios none,storm -detect probe
//	svm serve -no-kill                     # healthy baseline sweep
func serveCmd(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	base := serve.DefaultSpec()
	scenarios := enum(fs, "scenarios", "", "comma-separated chaos scenarios (default: all)", parseScenarios)
	detects := enum(fs, "detect", "oracle,probe", "comma-separated detection modes", list(model.ParseDetection))
	nodes := enum(fs, "nodes", "4", "cluster nodes", atLeast(1))
	tpn := enum(fs, "threads", "1", "serving threads per node", atLeast(1))
	requests := enum(fs, "requests", "400", "requests per serving thread", atLeast(1))
	fs.Int64Var(&base.MeanGapNs, "gap", base.MeanGapNs, "mean inter-arrival gap per thread (virtual ns)")
	fs.Float64Var(&base.ZipfS, "zipf", base.ZipfS, "key-popularity Zipf exponent (0: uniform)")
	fs.IntVar(&base.ReadPct, "readpct", base.ReadPct, "GET percentage of the request mix")
	fs.Int64Var(&base.ServiceNs, "service", base.ServiceNs, "per-request CPU cost (virtual ns)")
	fs.Int64Var(&base.Seed, "seed", base.Seed, "simulation-engine seed")
	fs.Uint64Var(&base.ArrivalSeed, "arrival-seed", base.ArrivalSeed, "arrival/request stream seed")
	fs.Int64Var(&base.KillAtNs, "kill-at", 0, "failure injection time (virtual ns; 0: 40% into the nominal stream)")
	noKill := fs.Bool("no-kill", false, "skip failure injection (healthy baseline)")
	fs.IntVar(&base.Victim, "victim", base.Victim, "node to kill")
	fs.Float64Var(&base.RewarmFactor, "rewarm-factor", base.RewarmFactor, "re-warm exit threshold, x healthy p99")
	if code, ok := parse(fs, args, errw); !ok {
		return code
	}
	base.Nodes, base.ThreadsPerNode, base.Requests = *nodes, *tpn, *requests
	switch {
	case *noKill:
		base.KillAtNs = 0
	case base.KillAtNs == 0:
		base.KillAtNs = int64(base.Requests) * base.MeanGapNs * 2 / 5
	}
	if base.KillAtNs > 0 {
		if err := survivable(base.Nodes); err != nil {
			return usageError(errw, "serve", err)
		}
	}
	if err := base.Validate(); err != nil {
		return usageError(errw, "serve", err)
	}

	var specs []serve.Spec
	for _, sc := range *scenarios {
		for _, det := range *detects {
			sp := base
			sp.Scenario = sc.Name
			sp.Chaos = sc.Chaos
			sp.Detect = det
			specs = append(specs, sp)
		}
	}

	fmt.Fprintf(out, "svm serve: %d scenarios x %d detection modes, %d nodes x %d thread(s), %d req/thread @ %s mean gap",
		len(*scenarios), len(*detects), base.Nodes, base.ThreadsPerNode, base.Requests, ms(base.MeanGapNs))
	if base.KillAtNs > 0 {
		fmt.Fprintf(out, ", kill node %d @ %s", base.Victim, ms(base.KillAtNs))
	}
	fmt.Fprintln(out)

	start := time.Now()
	rs := par.Map(specs, 0, serve.RunCell, nil)
	wall := time.Since(start)

	failed := 0
	fmt.Fprintf(out, "%-8s %-6s  %9s %8s %8s %8s %8s  %s\n",
		"scenario", "detect", "kreq/s", "p50", "p99", "p999", "max", "timeline (healthy|undet|detect|recov|rewarm|restored)")
	for _, r := range rs {
		if r.Err != nil {
			failed++
			fmt.Fprintf(out, "FAIL %s/%s: %v\n", r.Spec.Scenario, r.Spec.Detect, r.Err)
			continue
		}
		c := r.Report()
		tput := float64(c.Completed) / (float64(c.ExecNs) / 1e9) / 1000
		ph := c.Phases
		fmt.Fprintf(out, "%-8s %-6s  %9.1f %8s %8s %8s %8s  %s|%s|%s|%s|%s|%s\n",
			c.Scenario, c.Detect, tput,
			ms(c.P50Ns), ms(c.P99Ns), ms(c.P999Ns), ms(c.MaxNs),
			ms(ph.HealthyNs), ms(ph.UndetectedNs), ms(ph.DetectingNs),
			ms(ph.RecoveryNs), ms(ph.RewarmNs), ms(ph.RestoredNs))
	}
	fmt.Fprintf(out, "svm serve: %d cells in %.1fms wall, %d FAILED\n", len(rs), float64(wall.Microseconds())/1000, failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// ms renders a virtual-ns duration compactly (µs under 10ms, ms above).
func ms(ns int64) string {
	switch {
	case ns == 0:
		return "0"
	case ns < 10_000_000:
		return fmt.Sprintf("%.0fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	}
}
