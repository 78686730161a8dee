package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"ftsvm/internal/harness"
	"ftsvm/internal/model"
	"ftsvm/internal/obs"
	"ftsvm/internal/svm"
)

// runCmd executes a single application and prints its execution-time
// breakdown, traffic statistics and verification result, optionally
// failing a node mid-run:
//
//	svm run -app fft -mode extended -nodes 8 -threads 2 -size medium
//	svm run -app waternsq -mode extended -kill 2 -killat 5ms
//
// With -events it instead streams the protocol's flight-recorder events
// (releases, phases, checkpoints, barriers, lock traffic, failures,
// recovery milestones) with virtual timestamps, the view for inspecting
// protocol behaviour around an injected failure; -dump prints each
// node's last -ring events after the run:
//
//	svm run -app radix -size small -nodes 4 -events all -kill 2 -killat 3ms
//	svm run -app lu -events release.phase1,kill -node 1
//	svm run -app waternsq -events lock -limit 50 -dump
func runCmd(args []string, out, errw io.Writer) (code int) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	app := enum(fs, "app", "fft", "application: "+strings.Join(appNames, ", "), appName)
	mode := enum(fs, "mode", "extended", "protocol: base, extended", oneOf(map[string]svm.Mode{"base": svm.ModeBase, "extended": svm.ModeFT}))
	lock := enum(fs, "lock", "polling", "lock algorithm: polling, queue, nic", oneOf(map[string]svm.LockAlgo{"polling": svm.LockPolling, "queue": svm.LockQueue, "nic": svm.LockNIC}))
	size := enum(fs, "size", "medium", "problem size: small, medium, paper", harness.ParseSize)
	nodes := enum(fs, "nodes", "8", "cluster nodes", atLeast(1))
	threads := enum(fs, "threads", "1", "compute threads per node", atLeast(1))
	kill := fs.Int("kill", -1, "node to fail mid-run (-1: no failure)")
	killAt := fs.Duration("killat", 5*time.Millisecond, "virtual time of the failure")
	seed := fs.Int64("seed", 1, "simulation seed")
	events := enum(fs, "events", "", "stream the events whose kind starts with one of these comma-separated prefixes (all: every kind)", parseEvents)
	node := fs.Int("node", -1, "with -events, only events from this node (-1: all)")
	limit := fs.Int("limit", 2000, "with -events, maximum events to print (0: unlimited)")
	ring := enum(fs, "ring", "64", "flight-recorder ring size per node", atLeast(1))
	dump := fs.Bool("dump", false, "dump each node's flight-recorder ring after the run")
	audit := fs.Bool("audit", false, "enable the online invariant auditor")
	prof := profileFlags(fs)
	if code, ok := parse(fs, args, errw); !ok {
		return code
	}
	if *kill != -1 {
		err := survivable(*nodes)
		switch {
		case *kill < 0 || *kill >= *nodes:
			err = fmt.Errorf("-kill %d is not a node of a %d-node cluster", *kill, *nodes)
		case *mode != svm.ModeFT:
			err = fmt.Errorf("-kill needs -mode extended: the base protocol does not survive a failure")
		case *killAt < 0:
			err = fmt.Errorf("-killat %v is before the run starts", *killAt)
		}
		if err != nil {
			return usageError(errw, "run", err)
		}
	}
	switch {
	case *node < -1 || *node >= *nodes:
		return usageError(errw, "run", fmt.Errorf("-node %d is not a node of a %d-node cluster (-1: all)", *node, *nodes))
	case *limit < 0:
		return usageError(errw, "run", fmt.Errorf("-limit %d is negative (0: unlimited)", *limit))
	}

	if err := prof.open(); err != nil {
		return usageError(errw, "run", err)
	}
	defer prof.close(errw, &code)
	c := harness.Config{
		App: *app, Size: *size, Mode: *mode, LockAlgo: *lock, Nodes: *nodes, ThreadsPerNode: *threads,
		Overrides: func(cfg *model.Config) { cfg.Seed = *seed },
	}
	cl, w, err := harness.NewCluster(c, svm.Options{})
	if err != nil {
		return usageError(errw, "run", err)
	}
	var rec *obs.Recorder
	if *events != nil || *dump {
		rec = cl.EnableFlightRecorder(*ring)
	}
	printed := 0
	if *events != nil {
		rec.SetSink(func(e obs.Event) {
			kind := e.Kind.String()
			if *limit > 0 && printed >= *limit || *node >= 0 && int(e.Node) != *node ||
				!slices.ContainsFunc(*events, func(prefix string) bool { return strings.HasPrefix(kind, prefix) }) {
				return
			}
			printed++
			fmt.Fprintf(out, "%12.3fms  %-18s node=%d thread=%d seq=%d\n",
				float64(e.TimeNs)/1e6, kind, e.Node, e.Thread, e.Seq)
		})
	}
	if *audit {
		cl.EnableAuditor()
	}
	if *kill >= 0 {
		cl.Engine().At(killAt.Nanoseconds(), func() { cl.KillNode(*kill) })
		if *events == nil {
			fmt.Fprintf(out, "will fail node %d at t=%v\n", *kill, *killAt)
		}
	}

	start := time.Now()
	err = finish(cl, w)
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintf(errw, "svm run: %v\n", err)
		if *dump {
			rec.Dump(errw, *ring)
		}
		return 1
	}
	if *events != nil {
		fmt.Fprintf(out, "--- %s finished in %.2f ms virtual; verified OK; %d events printed\n",
			w.Name, float64(cl.ExecTime())/1e6, printed)
	} else {
		report(out, cl, c, w.Name, wall)
	}
	if *dump {
		rec.Dump(out, *ring)
	}
	return 0
}

// parseEvents parses -events: no prefixes when empty, one prefix
// matching every kind for "all", and otherwise prefixes that each start
// at least one event kind's name.
func parseEvents(s string) ([]string, error) {
	switch s {
	case "":
		return nil, nil
	case "all":
		return []string{""}, nil
	}
	return list(func(prefix string) (string, error) {
		if !slices.ContainsFunc(obs.Kinds(), func(k obs.Kind) bool { return strings.HasPrefix(k.String(), prefix) }) {
			return "", fmt.Errorf("no event kind starts with %q", prefix)
		}
		return prefix, nil
	})(s)
}

// report prints a finished run's breakdown, traffic and protocol events.
func report(out io.Writer, cl *svm.Cluster, c harness.Config, name string, wall time.Duration) {
	fmt.Fprintf(out, "%s  protocol=%s  lock=%s  %d nodes x %d threads  size=%s\n",
		name, c.Mode, c.LockAlgo, c.Nodes, c.ThreadsPerNode, c.Size)
	fmt.Fprintf(out, "verification: OK\n")
	fmt.Fprintf(out, "execution time: %.2f ms (virtual), %.2f ms (wall)\n",
		float64(cl.ExecTime())/1e6, float64(wall)/1e6)

	bd := cl.AvgBreakdown()
	fmt.Fprintln(out, "breakdown (avg per thread, ms):")
	for _, c := range svm.Components() {
		fmt.Fprintf(out, "  %-12s %10.2f\n", c, float64(bd.Comp[c])/1e6)
	}
	var msgs, bytes, stalls int64
	for i := 0; i < cl.Nodes(); i++ {
		st := cl.Network().Endpoint(i).Stats()
		msgs += st.MsgsSent
		bytes += st.BytesSent
		stalls += st.PostStallsNs
	}
	fmt.Fprintf(out, "traffic: %d messages, %.1f MB, post-queue stalls %.2f ms\n",
		msgs, float64(bytes)/1e6, float64(stalls)/1e6)
	fmt.Fprintf(out, "checkpoints: %d\n", cl.CheckpointCount())

	ps := cl.ProtoStats()
	fmt.Fprintln(out, "protocol events:")
	fmt.Fprintf(out, "  read faults  %8d   remote fetches %8d   local fetches %8d\n",
		ps.ReadFaults, ps.RemoteFetches, ps.LocalFetches)
	fmt.Fprintf(out, "  write faults %8d   intervals      %8d   invalidations %8d\n",
		ps.WriteFaults, ps.Intervals, ps.Invalidations)
	fmt.Fprintf(out, "  pages diffed %8d   home pages     %8d   (%.0f%% home)\n",
		ps.PagesDiffed, ps.HomePagesDiffed, 100*ps.HomeDiffFraction())
	fmt.Fprintf(out, "  diff msgs    %8d   diff bytes     %8d   deferred words %6d\n",
		ps.DiffMsgs, ps.DiffBytes, ps.DeferredWords)
	fmt.Fprintf(out, "  lock acquires %7d   intra-node     %8d   barriers      %8d\n",
		ps.RemoteAcquires, ps.IntraNodeHandoffs, ps.BarrierEpisodes)
	if ps.Recoveries > 0 {
		fmt.Fprintf(out, "  recoveries   %8d   migrated threads %6d\n", ps.Recoveries, ps.MigratedThreads)
	}
}
