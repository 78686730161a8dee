// Command svmcheck systematically verifies the extended protocol's
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
// Usage:
//
//	svmcheck -app waternsq -size small -nodes 4
//	svmcheck -app kvstore -seqs 1,2,3,4 -milestones release.savets,release.phase2
//	svmcheck -app waternsq -lock nic -milestones lock.grant -seqs 0
//
// Each schedule is deterministic: a reported failure reproduces exactly
// under the same flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ftsvm/internal/apps"
	"ftsvm/internal/harness"
	"ftsvm/internal/model"
	"ftsvm/internal/svm"
)

var defaultMilestones = []string{
	"release.commit", "release.phase1", "release.savets",
	"release.ckptB", "release.phase2", "release.done",
	"barrier.arrive",
}

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

func main() {
	app := flag.String("app", "waternsq", "application (see svmrun -list)")
	size := flag.String("size", "small", "problem size: small, medium, paper")
	nodes := flag.Int("nodes", 4, "cluster nodes")
	tierFlag := flag.String("tier", "", "scale tier preset: paper, large (64 nodes), huge (256 nodes), xlarge (512 nodes, hashed directory); overrides -nodes")
	tpn := flag.Int("threads", 1, "threads per node")
	lock := flag.String("lock", "polling", "lock algorithm: polling, nic")
	detect := flag.String("detect", "probe", "failure detection: probe (honest probe/ack traffic), oracle")
	seqsFlag := flag.String("seqs", "1,3,5", "comma-separated release/barrier sequence numbers to target (0: any)")
	milestonesFlag := flag.String("milestones", strings.Join(defaultMilestones, ","), "comma-separated protocol milestones")
	ring := flag.Int("ring", 64, "flight-recorder ring size per node")
	verbose := flag.Bool("v", false, "print every schedule, not just failures")
	flag.Parse()

	var algo svm.LockAlgo
	switch *lock {
	case "polling":
		algo = svm.LockPolling
	case "nic":
		algo = svm.LockNIC
	default:
		fmt.Fprintf(os.Stderr, "bad -lock %q: the extended protocol supports polling and nic\n", *lock)
		os.Exit(2)
	}
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
	tier, err := harness.ParseTier(*tierFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if tier != harness.TierPaper {
		// The tier fixes the cluster shape; resolve the node count so the
		// victim loop and the banner see the real cluster size.
		scratch := model.Default()
		if err := tier.Apply(&scratch); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		*nodes = scratch.Nodes
	}
	var seqs []int64
	for _, f := range strings.Split(*seqsFlag, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -seqs entry %q: %v\n", f, err)
			os.Exit(2)
		}
		seqs = append(seqs, n)
	}
	milestones := strings.Split(*milestonesFlag, ",")

	fmt.Printf("svmcheck: %s size=%s, %d nodes x %d thread(s), %s lock, %s detection; %d milestones x %d victims x %d seqs\n",
		*app, *size, *nodes, *tpn, *lock, det, len(milestones), *nodes, len(seqs))

	sch := schedule{app: *app, size: sz, tier: tier, nodes: *nodes, tpn: *tpn,
		algo: algo, det: det, ring: *ring}
	ran, unreachable, failed := 0, 0, 0
	for _, kind := range milestones {
		kind = strings.TrimSpace(kind)
		for victim := 0; victim < *nodes; victim++ {
			for _, seq := range seqs {
				name := fmt.Sprintf("%-16s victim=%d seq=%d", kind, victim, seq)
				status, err := sch.run(kind, victim, seq)
				switch {
				case err != nil:
					failed++
					fmt.Printf("FAIL %s: %v\n", name, err)
				case !status:
					unreachable++
					if *verbose {
						fmt.Printf("  -- %s: milestone never reached\n", name)
					}
				default:
					ran++
					if *verbose {
						fmt.Printf("  ok %s\n", name)
					}
				}
			}
		}
	}
	fmt.Printf("svmcheck: %d schedules verified, %d unreachable, %d FAILED\n", ran, unreachable, failed)
	if failed > 0 {
		os.Exit(1)
	}
}

type schedule struct {
	app   string
	size  harness.Size
	tier  harness.Tier
	nodes int
	tpn   int
	algo  svm.LockAlgo
	det   model.DetectionMode
	ring  int
}

// run executes one failure schedule. The bool reports whether the kill
// point was actually reached; unreached schedules verify nothing. On any
// failure the last flight-recorder events of every node are dumped.
func (s schedule) run(kind string, victim int, seq int64) (reached bool, err error) {
	cfg := model.Default()
	if err := s.tier.Apply(&cfg); err != nil {
		return false, err
	}
	cfg.Nodes = s.nodes
	cfg.ThreadsPerNode = s.tpn
	cfg.Detection = s.det
	shape := apps.Shape{Nodes: s.nodes, ThreadsPerNode: s.tpn, PageSize: cfg.PageSize}
	w, err := harness.Build(s.app, s.size, shape)
	if err != nil {
		return false, err
	}
	k := &killer{kind: kind, node: victim, seq: seq}
	cl, err := svm.New(svm.Options{
		Config: cfg, Mode: svm.ModeFT, LockAlgo: s.algo, Pages: w.Pages, Locks: w.Locks,
		HomeAssign: w.HomeAssign, Body: w.Body, Tracer: k,
	})
	if err != nil {
		return false, err
	}
	k.cl = cl
	rec := cl.EnableFlightRecorder(s.ring)
	cl.EnableAuditor()
	defer func() {
		if err != nil && reached {
			fmt.Printf("flight recorder, schedule %s victim=%d seq=%d:\n", kind, victim, seq)
			rec.Dump(os.Stdout, 8)
		}
	}()
	if err := cl.Run(); err != nil {
		return k.done, fmt.Errorf("simulation error: %w", err)
	}
	if !k.done {
		return false, nil
	}
	if !cl.Finished() {
		return true, fmt.Errorf("threads did not finish")
	}
	if err := w.Err(); err != nil {
		return true, fmt.Errorf("result verification: %w", err)
	}
	if err := cl.VerifyReplicas(); err != nil {
		return true, fmt.Errorf("replica audit: %w", err)
	}
	return true, nil
}
