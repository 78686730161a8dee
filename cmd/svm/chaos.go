package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"ftsvm/internal/harness"
	"ftsvm/internal/model"
	"ftsvm/internal/svm"
)

// chaosApps is the full suite: the paper's six SPLASH-2 workloads plus the
// extension applications.
var chaosApps = append(append([]string{}, harness.AppNames...), "ocean", "kvstore", "kvserve")

// chaosCmd sweeps the application suite across the deterministic
// network-chaos scenarios (latency jitter, bandwidth degradation windows,
// burst loss, gray nodes) under both protocols, with honest probe-based
// failure detection on by default. Every run executes under the online
// invariant auditor; on any failure the auditor's verdict plus each node's
// last flight-recorder events are dumped. A scenario passes only if the
// application's own result verification, the replica audit (extended
// protocol), and the auditor all stay clean — i.e. chaos may only ever
// cost time, never correctness.
//
//	svm chaos                              # full sweep: 9 apps x 6 scenarios x 2 modes
//	svm chaos -apps fft,kvstore -scenarios burst,gray
//	svm chaos -size medium -nodes 8 -detect oracle
func chaosCmd(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	appList := enum(fs, "apps", strings.Join(chaosApps, ","), "comma-separated applications", list(appName))
	scenarios := enum(fs, "scenarios", "", "comma-separated chaos scenarios (default: all)", parseScenarios)
	size := enum(fs, "size", "small", "problem size: small, medium, paper", harness.ParseSize)
	nodes := enum(fs, "nodes", "4", "cluster nodes", atLeast(1))
	tpn := enum(fs, "threads", "1", "threads per node", atLeast(1))
	det := enum(fs, "detect", "probe", "failure detection: probe (honest), oracle", model.ParseDetection)
	ring := enum(fs, "ring", "64", "flight-recorder ring size per node", atLeast(1))
	verbose := fs.Bool("v", false, "print every cell, not just failures")
	if code, ok := parse(fs, args, errw); !ok {
		return code
	}

	fmt.Fprintf(out, "svmchaos: %d apps x %d scenarios x 2 modes, size=%s, %d nodes x %d thread(s), detect=%s\n",
		len(*appList), len(*scenarios), *size, *nodes, *tpn, *det)
	ran, failed := 0, 0
	for _, sc := range *scenarios {
		for _, app := range *appList {
			for _, mode := range []svm.Mode{svm.ModeBase, svm.ModeFT} {
				name := fmt.Sprintf("%-8s %-10s %-9s", sc.Name, app, mode)
				cl, w, err := harness.NewCluster(harness.Config{App: app, Size: *size, Mode: mode, Nodes: *nodes,
					ThreadsPerNode: *tpn, Detection: *det, Chaos: &sc.Chaos}, svm.Options{})
				if err == nil {
					err = verify(out, cl, w, *ring, fmt.Sprintf("flight recorder, %s/%s scenario chaos:", app, mode))
				}
				ran++
				if err != nil {
					failed++
					fmt.Fprintf(out, "FAIL %s: %v\n", name, err)
					continue
				}
				if *verbose {
					net := cl.Network()
					fmt.Fprintf(out, "  ok %s vms=%.1f retx=%d retxB=%d probes=%d acks=%d falsesusp=%d\n", name,
						float64(cl.ExecTime())/1e6, net.Retransmits, net.RetxBytes,
						net.ProbesSent, net.ProbeAcks, net.FalseSuspicions)
				}
			}
		}
	}
	fmt.Fprintf(out, "svmchaos: %d cells, %d FAILED\n", ran, failed)
	if failed > 0 {
		return 1
	}
	return 0
}
