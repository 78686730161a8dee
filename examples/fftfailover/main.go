// fftfailover: kill a node in the middle of a parallel FFT and watch the
// extended protocol recover.
//
// The run executes the SPLASH-2-style six-step FFT on 8 simulated nodes
// under the fault-tolerant protocol, killing node 3 during one of its
// releases (after phase-1 diff propagation — the roll-back window). The
// flight recorder's sink narrates the protocol milestones around the failure: detection,
// the global recovery phase, and the migrated thread resuming on the
// backup node. The FFT's spectrum check verifies the result is exact.
//
// Run: go run ./examples/fftfailover
package main

import (
	"fmt"
	"log"

	"ftsvm/internal/apps"
	"ftsvm/internal/model"
	"ftsvm/internal/obs"
	"ftsvm/internal/svm"
)

// narrate prints the protocol milestones around the failure, killing
// node 3 right after phase 1 of its second release. It is the flight
// recorder's sink, so it runs at each event, in virtual time.
func narrate(cl *svm.Cluster, killed *bool) func(obs.Event) {
	return func(e obs.Event) {
		ms := float64(e.TimeNs) / 1e6
		switch e.Kind {
		case obs.KReleasePhase1:
			if !*killed && e.Node == 3 && e.Seq >= 2 {
				*killed = true
				fmt.Printf("  t=%.2fms  node 3 completed phase 1 of release #%d — killing it now\n", ms, e.Seq)
				cl.KillNode(3)
			}
		case obs.KRecoveryStart:
			fmt.Printf("  t=%.2fms  failure of node %d detected; global recovery begins\n", ms, e.Node)
		case obs.KRecoveryRehome:
			fmt.Printf("  t=%.2fms  pages and locks re-homed; %d bytes of replicas rebuilt\n", ms, e.Seq)
		case obs.KRecoveryMigrate:
			fmt.Printf("  t=%.2fms  %d thread(s) migrated to the backup node\n", ms, e.Seq)
		case obs.KRecoveryDone:
			fmt.Printf("  t=%.2fms  recovery complete; execution continues on 7 nodes\n", ms)
		}
	}
}

func main() {
	cfg := model.Default()
	cfg.Nodes = 8
	cfg.ThreadsPerNode = 1

	shape := apps.Shape{Nodes: cfg.Nodes, ThreadsPerNode: cfg.ThreadsPerNode, PageSize: cfg.PageSize}
	w := apps.FFT(shape, 1<<16) // 64K complex points

	cl, err := svm.New(svm.Options{
		Config:     cfg,
		Mode:       svm.ModeFT,
		Pages:      w.Pages,
		Locks:      w.Locks,
		HomeAssign: w.HomeAssign,
		Body:       w.Body,
	})
	if err != nil {
		log.Fatal(err)
	}
	killed := false
	cl.EnableFlightRecorder(0).SetSink(narrate(cl, &killed))

	fmt.Println("running 64K-point FFT on 8 nodes, extended protocol, with failure injection...")
	if err := cl.Run(); err != nil {
		log.Fatal(err)
	}
	if !killed {
		log.Fatal("node 3 never reached phase 1 of its second release; nothing was killed")
	}
	if err := cl.Verify(w.Err); err != nil {
		log.Fatal("verification FAILED: ", err)
	}
	fmt.Printf("FFT complete and verified in %.2f ms of virtual time\n", float64(cl.ExecTime())/1e6)
}
