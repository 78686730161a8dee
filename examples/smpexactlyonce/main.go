// smpexactlyonce: demonstrate exactly-once lock-protected updates on SMP
// nodes surviving a failure inside a critical-section window.
//
// Four 2-way SMP nodes run eight threads that each add their thread id
// (+1) into rotating shared accumulators under per-accumulator locks —
// the same read-modify-write pattern as Water-Nsquared's force flush. A
// node is killed right after it saves a release timestamp: the window
// where its releasing thread rolls *forward* while its sibling sits
// mid-critical-section. Without the write-tracking machinery (word
// deferral + the mid-CS point-A skip + roll-aware snapshot selection;
// see DESIGN.md), the sibling's half-done update would either be applied
// twice or lost. The run recovers, finishes, and the final sums are
// checked against the closed form.
//
// Run: go run ./examples/smpexactlyonce
package main

import (
	"fmt"
	"log"

	"ftsvm/internal/model"
	"ftsvm/internal/obs"
	"ftsvm/internal/svm"
)

const (
	nodes = 4
	tpn   = 2
	accs  = 6 // shared accumulators, one lock each
	iters = 12
)

type state struct {
	Iter int
}

// killAtSaveTS is the flight recorder's sink: it kills node 2 right
// after it saves release #5's timestamp and reports the recovery.
func killAtSaveTS(cl *svm.Cluster, killed *bool) func(obs.Event) {
	return func(e obs.Event) {
		ms := float64(e.TimeNs) / 1e6
		switch e.Kind {
		case obs.KReleaseSaveTS:
			if !*killed && e.Node == 2 && e.Seq == 5 {
				*killed = true
				fmt.Printf("  t=%.2fms  node 2 saved release #%d's timestamp — killing it "+
					"(roll-forward window, sibling mid-critical-section)\n", ms, e.Seq)
				cl.KillNode(2)
			}
		case obs.KRecoveryDone:
			fmt.Printf("  t=%.2fms  recovery complete; node %d's threads resumed on the backup\n", ms, e.Node)
		}
	}
}

func main() {
	cfg := model.Default()
	cfg.Nodes = nodes
	cfg.ThreadsPerNode = tpn

	cl, err := svm.New(svm.Options{
		Config: cfg,
		Mode:   svm.ModeFT,
		Pages:  accs + 1,
		Locks:  accs,
		Body: func(t *svm.Thread) {
			st := &state{}
			t.Setup(st)
			for st.Iter < iters {
				a := (st.Iter + t.ID()) % accs
				t.Acquire(a)
				v := t.ReadU64(a * 256)
				t.Compute(500)
				t.WriteU64(a*256, v+uint64(t.ID()+1))
				st.Iter++ // advanced before Release: the exactly-once contract
				t.Release(a)
			}
			t.Barrier()
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	killed := false
	cl.EnableFlightRecorder(1).SetSink(killAtSaveTS(cl, &killed))

	fmt.Printf("%d nodes x %d threads, %d locked accumulators, %d updates/thread:\n",
		nodes, tpn, accs, iters)
	if err := cl.Run(); err != nil {
		log.Fatal(err)
	}
	if !cl.Finished() {
		log.Fatal("threads did not finish")
	}
	if !killed {
		log.Fatal("node 2 never saved release #5's timestamp; nothing was killed")
	}

	// Every thread adds (id+1) once per iteration, so the accumulators
	// must sum to iters * sum(id+1) — any duplicated or lost critical
	// section breaks this.
	var got, want uint64
	for a := 0; a < accs; a++ {
		got += cl.PeekU64(a * 256)
	}
	for id := 0; id < nodes*tpn; id++ {
		want += uint64(iters * (id + 1))
	}
	fmt.Printf("  accumulator sum: %d (expected %d)\n", got, want)
	if got != want {
		log.Fatal("exactly-once violated")
	}
	if err := cl.VerifyReplicas(); err != nil {
		log.Fatalf("replica audit: %v", err)
	}
	st := cl.ProtoStats()
	fmt.Printf("  deferred mid-CS words: %d, recoveries: %d, migrated threads: %d\n",
		st.DeferredWords, st.Recoveries, st.MigratedThreads)
	fmt.Println("  exactly-once held; replicas byte-identical. ✓")
}
