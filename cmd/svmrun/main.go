// Command svmrun executes a single application on the simulated SVM
// cluster and prints its execution-time breakdown, traffic statistics, and
// verification result. Optionally injects a node failure.
//
// Usage:
//
//	svmrun -app fft -mode extended -nodes 8 -threads 2 -size medium
//	svmrun -app waternsq -mode extended -kill 2 -killat 5ms
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ftsvm/internal/apps"
	"ftsvm/internal/harness"
	"ftsvm/internal/model"
	"ftsvm/internal/svm"
)

func main() {
	app := flag.String("app", "fft", "application: fft, lu, waternsq, watersp, radix, volrend")
	mode := flag.String("mode", "extended", "protocol: base, extended")
	lock := flag.String("lock", "polling", "lock algorithm: polling, queue, nic")
	size := flag.String("size", "medium", "problem size: small, medium, paper")
	nodes := flag.Int("nodes", 8, "cluster nodes")
	threads := flag.Int("threads", 1, "compute threads per node")
	kill := flag.Int("kill", -1, "node to fail mid-run (-1: no failure)")
	killAt := flag.Duration("killat", 5*time.Millisecond, "virtual time of the failure")
	seed := flag.Int64("seed", 1, "simulation seed")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	fulltwins := flag.Bool("fulltwins", false, "disable write-set tracked diffing (full-page twins and scans)")
	flag.Parse()

	cfg := model.Default()
	cfg.Nodes = *nodes
	cfg.ThreadsPerNode = *threads
	cfg.Seed = *seed

	var m svm.Mode
	switch *mode {
	case "base":
		m = svm.ModeBase
	case "extended":
		m = svm.ModeFT
	default:
		fmt.Fprintf(os.Stderr, "svmrun: unknown -mode %q (want base, extended)\n", *mode)
		os.Exit(2)
	}
	var la svm.LockAlgo
	switch *lock {
	case "polling":
		la = svm.LockPolling
	case "queue":
		la = svm.LockQueue
	case "nic":
		la = svm.LockNIC
	default:
		fmt.Fprintf(os.Stderr, "svmrun: unknown -lock %q (want polling, queue, nic)\n", *lock)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	s := apps.Shape{Nodes: cfg.Nodes, ThreadsPerNode: cfg.ThreadsPerNode, PageSize: cfg.PageSize}
	w, err := harness.Build(*app, harness.Size(*size), s)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cl, err := svm.New(svm.Options{
		Config:     cfg,
		Mode:       m,
		LockAlgo:   la,
		Pages:      w.Pages,
		Locks:      w.Locks,
		HomeAssign: w.HomeAssign,
		Body:       w.Body,
		FullTwins:  *fulltwins,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *kill >= 0 {
		cl.Engine().At(killAt.Nanoseconds(), func() { cl.KillNode(*kill) })
		fmt.Printf("will fail node %d at t=%v\n", *kill, *killAt)
	}

	start := time.Now()
	if err := cl.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "simulation error:", err)
		os.Exit(1)
	}
	wall := time.Since(start)
	if !cl.Finished() {
		fmt.Fprintln(os.Stderr, "threads did not finish")
		os.Exit(1)
	}
	if err := w.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "VERIFICATION FAILED:", err)
		os.Exit(1)
	}

	fmt.Printf("%s  protocol=%s  lock=%s  %d nodes x %d threads  size=%s\n",
		w.Name, m, la, cfg.Nodes, cfg.ThreadsPerNode, *size)
	fmt.Printf("verification: OK\n")
	fmt.Printf("execution time: %.2f ms (virtual), %.2f ms (wall)\n",
		float64(cl.ExecTime())/1e6, float64(wall)/1e6)

	bd := cl.AvgBreakdown()
	fmt.Println("breakdown (avg per thread, ms):")
	for _, c := range svm.Components() {
		fmt.Printf("  %-12s %10.2f\n", c, float64(bd.Comp[c])/1e6)
	}
	var msgs, bytes, stalls int64
	for i := 0; i < cfg.Nodes; i++ {
		st := cl.Network().Endpoint(i).Stats()
		msgs += st.MsgsSent
		bytes += st.BytesSent
		stalls += st.PostStallsNs
	}
	fmt.Printf("traffic: %d messages, %.1f MB, post-queue stalls %.2f ms\n",
		msgs, float64(bytes)/1e6, float64(stalls)/1e6)
	fmt.Printf("checkpoints: %d\n", cl.CheckpointCount())

	ps := cl.ProtoStats()
	fmt.Println("protocol events:")
	fmt.Printf("  read faults  %8d   remote fetches %8d   local fetches %8d\n",
		ps.ReadFaults, ps.RemoteFetches, ps.LocalFetches)
	fmt.Printf("  write faults %8d   intervals      %8d   invalidations %8d\n",
		ps.WriteFaults, ps.Intervals, ps.Invalidations)
	fmt.Printf("  pages diffed %8d   home pages     %8d   (%.0f%% home)\n",
		ps.PagesDiffed, ps.HomePagesDiffed, 100*ps.HomeDiffFraction())
	fmt.Printf("  diff msgs    %8d   diff bytes     %8d   deferred words %6d\n",
		ps.DiffMsgs, ps.DiffBytes, ps.DeferredWords)
	fmt.Printf("  lock acquires %7d   intra-node     %8d   barriers      %8d\n",
		ps.RemoteAcquires, ps.IntraNodeHandoffs, ps.BarrierEpisodes)
	if ps.Recoveries > 0 {
		fmt.Printf("  recoveries   %8d   migrated threads %6d\n", ps.Recoveries, ps.MigratedThreads)
	}
}
