// Command svmserve runs the open-loop serving benchmark: a Zipfian
// GET/PUT request stream against the SVM key-value store at a fixed
// arrival rate, swept across the deterministic chaos scenarios and both
// failure-detection modes, with a node killed mid-run. For every cell
// it reports throughput, virtual latency percentiles (p50/p99/p999),
// and the per-phase availability timeline — healthy, undetected
// failure, probe detection, recovery, re-warm, restored — derived from
// the cluster's failure-lifecycle milestones.
//
// Every quantity is virtual time from a deterministic simulation: the
// same flags print the same table. The default matrix is pinned, cell by
// cell, by the root package's TestGolden (the serve/ rows).
//
// Usage:
//
//	svmserve                              # 6 scenarios x {oracle, probe}
//	svmserve -scenarios none,storm -detect probe
//	svmserve -no-kill                     # healthy baseline sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ftsvm/internal/harness"
	"ftsvm/internal/model"
	"ftsvm/internal/serve"
)

func main() {
	scenariosFlag := flag.String("scenarios", "", "comma-separated chaos scenarios (default: all)")
	detectFlag := flag.String("detect", "oracle,probe", "comma-separated detection modes")
	nodes := flag.Int("nodes", 4, "cluster nodes")
	tpn := flag.Int("threads", 1, "serving threads per node")
	requests := flag.Int("requests", 400, "requests per serving thread")
	gap := flag.Int64("gap", 400_000, "mean inter-arrival gap per thread (virtual ns)")
	zipf := flag.Float64("zipf", 0.99, "key-popularity Zipf exponent (0: uniform)")
	readPct := flag.Int("readpct", 70, "GET percentage of the request mix")
	service := flag.Int64("service", 2_000, "per-request CPU cost (virtual ns)")
	seed := flag.Int64("seed", 1, "simulation-engine seed")
	arrivalSeed := flag.Uint64("arrival-seed", 7, "arrival/request stream seed")
	killAt := flag.Int64("kill-at", 0, "failure injection time (virtual ns; 0: 40% into the nominal stream)")
	noKill := flag.Bool("no-kill", false, "skip failure injection (healthy baseline)")
	victim := flag.Int("victim", 1, "node to kill")
	rewarm := flag.Float64("rewarm-factor", 2, "re-warm exit threshold, x healthy p99")
	flag.Parse()

	var scenarios []harness.ChaosScenario
	if *scenariosFlag == "" {
		scenarios = harness.ChaosScenarios()
	} else {
		for _, name := range strings.Split(*scenariosFlag, ",") {
			sc, err := harness.ChaosByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			scenarios = append(scenarios, sc)
		}
	}
	var detects []model.DetectionMode
	for _, name := range strings.Split(*detectFlag, ",") {
		det, err := model.ParseDetection(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		detects = append(detects, det)
	}

	base := serve.DefaultSpec()
	base.Nodes = *nodes
	base.ThreadsPerNode = *tpn
	base.Requests = *requests
	base.MeanGapNs = *gap
	base.ZipfS = *zipf
	base.ReadPct = *readPct
	base.ServiceNs = *service
	base.Seed = *seed
	base.ArrivalSeed = *arrivalSeed
	base.Victim = *victim
	base.RewarmFactor = *rewarm
	switch {
	case *noKill:
		base.KillAtNs = 0
	case *killAt > 0:
		base.KillAtNs = *killAt
	default:
		base.KillAtNs = int64(*requests) * *gap * 2 / 5
	}

	var specs []serve.Spec
	for _, sc := range scenarios {
		for _, det := range detects {
			sp := base
			sp.Scenario = sc.Name
			sp.Chaos = sc.Chaos
			sp.Detect = det
			specs = append(specs, sp)
		}
	}

	fmt.Printf("svmserve: %d scenarios x %d detection modes, %d nodes x %d thread(s), %d req/thread @ %s mean gap",
		len(scenarios), len(detects), *nodes, *tpn, *requests, ms(*gap))
	if base.KillAtNs > 0 {
		fmt.Printf(", kill node %d @ %s", *victim, ms(base.KillAtNs))
	}
	fmt.Println()

	start := time.Now()
	rs := serve.RunCells(specs)
	wall := time.Since(start)

	failed := 0
	fmt.Printf("%-8s %-6s  %9s %8s %8s %8s %8s  %s\n",
		"scenario", "detect", "kreq/s", "p50", "p99", "p999", "max", "timeline (healthy|undet|detect|recov|rewarm|restored)")
	for _, r := range rs {
		if r.Err != nil {
			failed++
			fmt.Printf("FAIL %s/%s: %v\n", r.Spec.Scenario, r.Spec.Detect, r.Err)
			continue
		}
		c := r.Report()
		tput := float64(c.Completed) / (float64(c.ExecNs) / 1e9) / 1000
		ph := c.Phases
		fmt.Printf("%-8s %-6s  %9.1f %8s %8s %8s %8s  %s|%s|%s|%s|%s|%s\n",
			c.Scenario, c.Detect, tput,
			ms(c.P50Ns), ms(c.P99Ns), ms(c.P999Ns), ms(c.MaxNs),
			ms(ph.HealthyNs), ms(ph.UndetectedNs), ms(ph.DetectingNs),
			ms(ph.RecoveryNs), ms(ph.RewarmNs), ms(ph.RestoredNs))
	}
	fmt.Printf("svmserve: %d cells in %.1fms wall, %d FAILED\n", len(rs), float64(wall.Microseconds())/1000, failed)
	if failed > 0 {
		os.Exit(1)
	}
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
