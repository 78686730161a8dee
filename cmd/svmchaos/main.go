// Command svmchaos sweeps the application suite across the deterministic
// network-chaos scenarios (latency jitter, bandwidth degradation windows,
// burst loss, gray nodes) under both protocols, with honest probe-based
// failure detection on by default. Every run executes under the online
// invariant auditor; on any failure the auditor's verdict plus each node's
// last flight-recorder events are dumped. A scenario passes only if the
// application's own result verification, the replica audit (extended
// protocol), and the auditor all stay clean — i.e. chaos may only ever
// cost time, never correctness.
//
// Usage:
//
//	svmchaos                              # full sweep: 8 apps x 6 scenarios x 2 modes
//	svmchaos -apps fft,kvstore -scenarios burst,gray
//	svmchaos -size medium -nodes 8 -detect oracle
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ftsvm/internal/apps"
	"ftsvm/internal/harness"
	"ftsvm/internal/model"
	"ftsvm/internal/svm"
)

// chaosApps is the full suite: the paper's six SPLASH-2 workloads plus the
// two extension applications.
var chaosApps = append(append([]string{}, harness.AppNames...), "ocean", "kvstore", "kvserve")

func main() {
	appsFlag := flag.String("apps", strings.Join(chaosApps, ","), "comma-separated applications")
	scenariosFlag := flag.String("scenarios", "", "comma-separated chaos scenarios (default: all)")
	size := flag.String("size", "small", "problem size: small, medium, paper")
	nodes := flag.Int("nodes", 4, "cluster nodes")
	tpn := flag.Int("threads", 1, "threads per node")
	detect := flag.String("detect", "probe", "failure detection: probe (honest), oracle")
	ring := flag.Int("ring", 64, "flight-recorder ring size per node")
	verbose := flag.Bool("v", false, "print every cell, not just failures")
	flag.Parse()

	det, err := model.ParseDetection(*detect)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sz, err := harness.ParseSize(*size)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
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
	appList := strings.Split(*appsFlag, ",")

	fmt.Printf("svmchaos: %d apps x %d scenarios x 2 modes, size=%s, %d nodes x %d thread(s), detect=%s\n",
		len(appList), len(scenarios), *size, *nodes, *tpn, det)

	ran, failed := 0, 0
	for _, sc := range scenarios {
		for _, app := range appList {
			app = strings.TrimSpace(app)
			for _, mode := range []svm.Mode{svm.ModeBase, svm.ModeFT} {
				name := fmt.Sprintf("%-8s %-10s %-9s", sc.Name, app, mode)
				cell := cell{app: app, size: sz, nodes: *nodes, tpn: *tpn,
					mode: mode, det: det, chaos: sc.Chaos, ring: *ring}
				line, err := cell.run()
				ran++
				if err != nil {
					failed++
					fmt.Printf("FAIL %s: %v\n", name, err)
					continue
				}
				if *verbose {
					fmt.Printf("  ok %s %s\n", name, line)
				}
			}
		}
	}
	fmt.Printf("svmchaos: %d cells, %d FAILED\n", ran, failed)
	if failed > 0 {
		os.Exit(1)
	}
}

type cell struct {
	app   string
	size  harness.Size
	nodes int
	tpn   int
	mode  svm.Mode
	det   model.DetectionMode
	chaos model.Chaos
	ring  int
}

// run executes one app x scenario x mode cell under the auditor and
// returns a one-line traffic summary, or the first correctness failure.
func (c cell) run() (string, error) {
	cfg := model.Default()
	cfg.Nodes = c.nodes
	cfg.ThreadsPerNode = c.tpn
	cfg.Detection = c.det
	cfg.Chaos = c.chaos
	shape := apps.Shape{Nodes: c.nodes, ThreadsPerNode: c.tpn, PageSize: cfg.PageSize}
	w, err := harness.Build(c.app, c.size, shape)
	if err != nil {
		return "", err
	}
	cl, err := svm.New(svm.Options{
		Config: cfg, Mode: c.mode, Pages: w.Pages, Locks: w.Locks,
		HomeAssign: w.HomeAssign, Body: w.Body,
	})
	if err != nil {
		return "", err
	}
	rec := cl.EnableFlightRecorder(c.ring)
	cl.EnableAuditor()
	dump := func(err error) (string, error) {
		fmt.Printf("flight recorder, %s/%s scenario chaos:\n", c.app, c.mode)
		rec.Dump(os.Stdout, 8)
		return "", err
	}
	if err := cl.Run(); err != nil {
		return dump(fmt.Errorf("simulation error: %w", err))
	}
	if !cl.Finished() {
		return dump(fmt.Errorf("threads did not finish"))
	}
	if err := w.Err(); err != nil {
		return dump(fmt.Errorf("result verification: %w", err))
	}
	if c.mode == svm.ModeFT {
		if err := cl.VerifyReplicas(); err != nil {
			return dump(fmt.Errorf("replica audit: %w", err))
		}
	}
	net := cl.Network()
	return fmt.Sprintf("vms=%.1f retx=%d retxB=%d probes=%d acks=%d falsesusp=%d",
		float64(cl.ExecTime())/1e6, net.Retransmits, net.RetxBytes,
		net.ProbesSent, net.ProbeAcks, net.FalseSuspicions), nil
}
