package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ftsvm/internal/harness"
	"ftsvm/internal/model"
	"ftsvm/internal/svm"
)

// killer fail-stops one node at the first matching trace event.
type killer struct {
	cl   *svm.Cluster
	kind string
	node int
	seq  int64
	done bool
}

func (k *killer) Event(e svm.TraceEvent) {
	if k.done || e.Kind != k.kind || e.Node != k.node {
		return
	}
	if k.seq != 0 && e.Seq != k.seq {
		return
	}
	k.done = true
	k.cl.KillNode(k.node)
}

// checkCmd systematically verifies the extended protocol's
// fault-tolerance guarantee on a real workload: it re-runs the
// application many times, each run fail-stopping one node inside a
// different protocol window (§4.5's failure cases), and checks that the
// run completes, the application's own result verification passes, and
// the surviving replicas of every page agree byte for byte. Every
// schedule additionally runs under the online invariant auditor
// (internal/obs), so a single-holder or replication violation aborts the
// run at the faulting event instead of surfacing as a corrupt result;
// on any failure each node's last flight-recorder events are dumped.
//
//	svm check -app waternsq -size small -nodes 4
//	svm check -app kvstore -seqs 1,2,3,4 -milestones release.savets,release.phase2
//	svm check -app waternsq -lock nic -milestones lock.grant -seqs 0
//
// Each schedule is deterministic: a reported failure reproduces exactly
// under the same flags.
func checkCmd(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	app := fs.String("app", "waternsq", "application (as for svm run -app)")
	size := enum(fs, "size", "small", "problem size: small, medium, paper", harness.ParseSize)
	nodes := enum(fs, "nodes", "4", "cluster nodes", atLeast(1))
	tier := enum(fs, "tier", "", "scale tier preset: paper, large (64 nodes), huge (256 nodes), xlarge (512 nodes, hashed directory); overrides -nodes", harness.ParseTier)
	tpn := enum(fs, "threads", "1", "threads per node", atLeast(1))
	lock := enum(fs, "lock", "polling", "lock algorithm: polling, nic", oneOf(map[string]svm.LockAlgo{"polling": svm.LockPolling, "nic": svm.LockNIC}))
	det := enum(fs, "detect", "probe", "failure detection: probe (honest probe/ack traffic), oracle", model.ParseDetection)
	seqs := enum(fs, "seqs", "1,3,5", "comma-separated release/barrier sequence numbers to target (0: any)", list(parseSeq))
	milestones := enum(fs, "milestones", "release.commit,release.phase1,release.savets,release.ckptB,release.phase2,release.done,barrier.arrive",
		"comma-separated protocol milestones", list(kindName))
	ring := enum(fs, "ring", "64", "flight-recorder ring size per node", atLeast(1))
	verbose := fs.Bool("v", false, "print every schedule, not just failures")
	if code, ok := parse(fs, args, errw); !ok {
		return code
	}
	c := harness.Config{App: *app, Size: *size, Mode: svm.ModeFT, Tier: *tier, Nodes: *nodes,
		ThreadsPerNode: *tpn, LockAlgo: *lock, Detection: *det}
	if *tier != harness.TierPaper {
		// The tier fixes the cluster shape; resolve the node count so the
		// victim loop and the banner see the real cluster size.
		c.Nodes = 0
		cfg, err := c.ModelConfig()
		if err != nil {
			return usageError(errw, "check", err)
		}
		c.Nodes = cfg.Nodes
	}
	if err := survivable(c.Nodes); err != nil {
		return usageError(errw, "check", err)
	}

	fmt.Fprintf(out, "svmcheck: %s size=%s, %d nodes x %d thread(s), %s lock, %s detection; %d milestones x %d victims x %d seqs\n",
		*app, *size, c.Nodes, *tpn, *lock, *det, len(*milestones), c.Nodes, len(*seqs))
	ran, unreachable, failed := 0, 0, 0
	for _, kind := range *milestones {
		for victim := 0; victim < c.Nodes; victim++ {
			for _, seq := range *seqs {
				name := fmt.Sprintf("%-16s victim=%d seq=%d", kind, victim, seq)
				k := &killer{kind: kind, node: victim, seq: seq}
				cl, w, err := newCluster(c, svm.Options{Tracer: k})
				if err == nil {
					k.cl = cl
					header := fmt.Sprintf("flight recorder, schedule %s victim=%d seq=%d:", kind, victim, seq)
					err = verify(out, cl, w, *ring, header, func() bool { return k.done })
				}
				switch {
				case errors.Is(err, errUnreached):
					unreachable++
					if *verbose {
						fmt.Fprintf(out, "  -- %s: milestone never reached\n", name)
					}
				case err != nil:
					failed++
					fmt.Fprintf(out, "FAIL %s: %v\n", name, err)
				default:
					ran++
					if *verbose {
						fmt.Fprintf(out, "  ok %s\n", name)
					}
				}
			}
		}
	}
	fmt.Fprintf(out, "svmcheck: %d schedules verified, %d unreachable, %d FAILED\n", ran, unreachable, failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// parseSeq parses one -seqs entry: a sequence number, 0 for any.
func parseSeq(s string) (int64, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err == nil && n < 0 {
		err = fmt.Errorf("sequence number %d is negative", n)
	}
	return n, err
}

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
	appsFlag := fs.String("apps", strings.Join(chaosApps, ","), "comma-separated applications")
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
	appList := strings.Split(*appsFlag, ",")

	fmt.Fprintf(out, "svmchaos: %d apps x %d scenarios x 2 modes, size=%s, %d nodes x %d thread(s), detect=%s\n",
		len(appList), len(*scenarios), *size, *nodes, *tpn, *det)
	ran, failed := 0, 0
	for _, sc := range *scenarios {
		for _, app := range appList {
			app = strings.TrimSpace(app)
			for _, mode := range []svm.Mode{svm.ModeBase, svm.ModeFT} {
				name := fmt.Sprintf("%-8s %-10s %-9s", sc.Name, app, mode)
				cl, w, err := newCluster(harness.Config{App: app, Size: *size, Mode: mode, Nodes: *nodes,
					ThreadsPerNode: *tpn, Detection: *det, Chaos: &sc.Chaos}, svm.Options{})
				if err == nil {
					err = verify(out, cl, w, *ring, fmt.Sprintf("flight recorder, %s/%s scenario chaos:", app, mode), nil)
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
