// Quickstart: a shared counter on a fault-tolerant SVM cluster.
//
// Four simulated nodes increment one shared counter under a lock, using
// the paper's extended (fault-tolerant) protocol. Halfway through, one
// node is killed; the cluster detects the failure, recovers (re-homes
// pages and locks, reconciles the replicas, migrates the dead node's
// thread to its backup node), and the final count is still exact.
//
// Run: go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"log"

	"ftsvm/internal/model"
	"ftsvm/internal/svm"
)

const (
	iters       = 25
	counterAddr = 0 // first word of page 0
	lockID      = 0
)

// state is the thread's resumable checkpoint state: everything needed to
// continue from a synchronization point lives here. The contract: advance
// Iter *before* Release, so the checkpoint taken inside the release
// reflects the completed iteration and a post-failure replay never
// double-increments.
type state struct {
	Iter int
}

func main() {
	cfg := model.Default()
	cfg.Nodes = 4
	cfg.ThreadsPerNode = 1

	opt := svm.Options{
		Config: cfg,
		Mode:   svm.ModeFT, // the paper's extended protocol
		Pages:  4,
		Locks:  1,
		Body: func(t *svm.Thread) {
			st := &state{}
			if t.Setup(st) {
				fmt.Printf("  thread %d resumed on node %d from iteration %d\n",
					t.ID(), t.NodeID(), st.Iter)
			}
			for st.Iter < iters {
				t.Acquire(lockID)
				v := t.ReadU64(counterAddr)
				t.WriteU64(counterAddr, v+1)
				st.Iter++
				t.Release(lockID)
			}
			t.Barrier()
		},
	}

	cl, err := svm.New(opt)
	if err != nil {
		log.Fatal(err)
	}

	// Fail node 2 at 5 ms of virtual time — mid-computation.
	cl.Engine().At(5_000_000, func() {
		fmt.Println("  !! node 2 fails")
		cl.KillNode(2)
	})

	fmt.Println("running 4 nodes x 25 increments with a mid-run failure...")
	if err := cl.Run(); err != nil {
		log.Fatal(err)
	}

	exact := func() error {
		got := cl.PeekU64(counterAddr)
		want := uint64(cfg.Nodes * iters)
		fmt.Printf("final counter: %d (want %d)\n", got, want)
		if got != want {
			return errors.New("COUNT WRONG — recovery failed")
		}
		return nil
	}
	if err := cl.Verify(exact); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("virtual execution time: %.2f ms\n", float64(cl.ExecTime())/1e6)
	fmt.Println("OK: single-node failure tolerated, not one increment lost or duplicated")
}
