package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"ftsvm/internal/explore"
	"ftsvm/internal/harness"
	"ftsvm/internal/model"
	"ftsvm/internal/svm"
)

// fiCmd is the exhaustive failure-point explorer: it runs a workload
// once to enumerate every protocol-step boundary, then re-executes it
// once per boundary with a fail-stop injected exactly there, holding each
// run to the invariant auditor, the workload's own result check, the
// replica/availability invariants, and the memory-consistency oracle's
// causal replay of the commit log:
//
//	svm fi -app counter,falseshare -size small -nodes 4
//	svm fi -app counter -budget 200 -workers 8 -json
//	svm fi -app counter -shard 1/4 -json     # machine 2 of 4
//	svm fi -app counter -kinds release.phase1,ckpt.A
//	svm fi -app counter -boundary 'release.phase1@n2#3'
//	svm fi -app waternsq -lock nic -detect probe -kinds lock.grant
//	svm fi -app counter -nodes 6 -degree 3 -pairs -budget 16 -seconds 9
//	svm fi -app kvstore -detect probe -chaos storm -budget 32
//
// -chaos runs the recording and every injection run over one network
// chaos scenario (default none, the fault-free network), and a recording
// is held to the same end-of-run check as an injection run.
//
// The workload is recorded once per app; the sweep then re-executes it
// on a pool of -workers goroutines, each injection run owning a fresh
// engine. NDJSON verdicts are emitted in boundary order regardless of
// completion order. -shard i/n keeps only every n-th boundary starting
// at i, so n machines running the same command with shards 0/n..n-1/n
// together cover the full sweep.
//
// -pairs explores ordered failure-point pairs: each swept boundary
// becomes a first kill, a discovery run enumerates the boundaries of
// the re-execution that follows it (mid-recovery ones included), and up
// to -seconds of them are re-executed as two-kill schedules. At
// -degree k >= 3 the second kill is genuinely injected and the run held
// to the full invariant set; at the default degree 2 second kills are
// refused by the failure model.
//
// Every failing verdict is reproducible from (app config, schedule,
// seed): rerun it with -boundary 'id' or -boundary 'id1,id2', which
// follows a failing verdict with each node's last flight-recorder events.
// A multi-app hint names every app up to the failing one: gob numbers
// types process-wide, so the apps before it shape its checkpoint costs.
func fiCmd(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("fi", flag.ContinueOnError)
	appList := enum(fs, "app", "counter,falseshare", "comma-separated applications to sweep", list(appName))
	size := enum(fs, "size", "small", "problem size: small, medium, paper", harness.ParseSize)
	nodes := enum(fs, "nodes", "4", "cluster nodes", atLeast(1))
	tier := enum(fs, "tier", "", "scale tier preset: paper, large (64 nodes), huge (256 nodes), xlarge (512 nodes, hashed directory); overrides -nodes", harness.ParseTier)
	threads := enum(fs, "threads", "1", "compute threads per node", atLeast(1))
	lock := enum(fs, "lock", "polling", "lock algorithm: polling, nic (the queue lock has no FT variant)", oneOf(map[string]svm.LockAlgo{"polling": svm.LockPolling, "nic": svm.LockNIC}))
	detect := enum(fs, "detect", "oracle", "failure detection: oracle, probe", model.ParseDetection)
	chaos := enum(fs, "chaos", "none", "network chaos scenario: none, jitter, degrade, burst, gray, storm", harness.ChaosByName)
	seed := fs.Int64("seed", 1, "simulation seed")
	degree := enum(fs, "degree", "2", "home-replication degree k: k-1 overlapping failures tolerated (2 = the paper's primary/secondary)", atLeast(2))
	pairs := fs.Bool("pairs", false, "sweep ordered failure-point pairs: every swept boundary as a first kill, -seconds second kills each")
	s := sweep{out: out, errw: errw}
	s.budget = enum(fs, "budget", "0", "cap the sweep at this many boundaries, evenly sampled (0: exhaustive)", atLeast(0))
	s.workers = enum(fs, "workers", "0", "parallel injection runs (0: GOMAXPROCS)", atLeast(0))
	s.shard = enum(fs, "shard", "", "multi-machine split i/n: sweep only boundaries with index = i mod n", parseShard)
	s.kinds = enum(fs, "kinds", "", "restrict to these boundary kinds (comma-separated)", optional(list(kindName)))
	s.schedule = enum(fs, "boundary", "", "explore one schedule: a boundary id (kind@nN#occ) or a comma-separated list, and print its verdict", optional(list(explore.ParseID)))
	s.seconds = enum(fs, "seconds", "8", "with -pairs: second kills per first boundary, evenly sampled from the post-failure re-execution (0: all)", atLeast(0))
	s.json = fs.Bool("json", false, "emit one JSON verdict per line instead of a summary")
	s.verbose = fs.Bool("v", false, "print per-boundary progress and the kind histogram")
	if code, ok := parse(fs, args, errw); !ok {
		return code
	}
	cellNodes := *nodes
	switch {
	case *tier != harness.TierPaper:
		// The tier fixes the cluster shape; -nodes keeps its default role
		// only on the paper tier.
		cellNodes = 0
	case *nodes <= *degree:
		// Every kill would leave fewer than -degree live nodes: the failure
		// model refuses it, and the sweep would pass having tested nothing.
		return usageError(errw, "fi", fmt.Errorf("a %d-node cluster cannot survive a failure at degree %d (need -nodes > -degree)", *nodes, *degree))
	}
	if *s.schedule != nil {
		// A kill on a node outside the cluster never fires: the replay would
		// run the whole workload only to report the schedule unfired.
		cfg, _ := harness.Config{Tier: *tier, Nodes: cellNodes}.ModelConfig() // the tier was checked at flag parsing
		for _, b := range *s.schedule {
			if b.Node < 0 || int(b.Node) >= cfg.Nodes {
				return usageError(errw, "fi", fmt.Errorf("boundary %s names node %d of a %d-node cluster", b.ID(), b.Node, cfg.Nodes))
			}
		}
	}

	// Non-default spec-shaping flags, echoed into reproduce hints so a
	// pasted command rebuilds the exact cluster the failure needs.
	for _, name := range []string{"size", "tier", "nodes", "threads", "lock", "detect", "chaos", "seed", "degree"} {
		if f := fs.Lookup(name); f.Value.String() != f.DefValue {
			s.repro += fmt.Sprintf(" -%s %s", name, f.Value)
		}
	}

	failed := 0
	for i, app := range *appList {
		s.apps = strings.Join((*appList)[:i+1], ",")
		sp := harness.ExploreSpec(harness.Config{
			App: app, Size: *size, Tier: *tier,
			Nodes: cellNodes, ThreadsPerNode: *threads,
			LockAlgo: *lock, Detection: *detect, Chaos: &chaos.Chaos,
			Overrides: func(cfg *model.Config) {
				cfg.Seed = *seed
				cfg.ReplicaDegree = *degree
			},
		})
		switch {
		case *s.schedule != nil:
			failed += s.one(sp)
		case *pairs:
			failed += s.pairs(sp)
		default:
			failed += s.boundaries(sp)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// optional lets a list flag be empty.
func optional[T any](parse func(string) ([]T, error)) func(string) ([]T, error) {
	return func(s string) ([]T, error) {
		if s == "" {
			return nil, nil
		}
		return parse(s)
	}
}

// parseShard parses the -shard value "i/n" (empty: no split).
func parseShard(s string) ([2]int, error) {
	if s == "" {
		return [2]int{0, 1}, nil
	}
	is, ns, ok := strings.Cut(s, "/")
	i, err1 := strconv.Atoi(is)
	n, err2 := strconv.Atoi(ns)
	if !ok || err1 != nil || err2 != nil {
		return [2]int{}, fmt.Errorf("want i/n, e.g. 0/4")
	}
	if n < 1 || i < 0 || i >= n {
		return [2]int{}, fmt.Errorf("need 0 <= i < n")
	}
	return [2]int{i, n}, nil
}

// sweep holds the flags one fi invocation applies to every app.
type sweep struct {
	out, errw                io.Writer
	apps, repro              string // the reproduce hint's -app list and other flags
	budget, workers, seconds *int
	shard                    *[2]int
	kinds                    *[]string
	schedule                 *[]explore.Boundary
	json, verbose            *bool
}

// record runs sp's workload once and picks the boundaries to sweep:
// those of the -kinds, in this -shard, sampled down to the -budget;
// eligible counts them before sampling. A failed recording is reported
// on errw and returns a nil trace.
func (s *sweep) record(sp explore.Spec) (tr *explore.Trace, bs []explore.Boundary, eligible int) {
	tr, err := explore.Record(sp)
	if err != nil {
		fmt.Fprintf(s.errw, "svm fi: %s: baseline recording failed: %v\n", sp.Name, err)
		return nil, nil, 0
	}
	bs = tr.Boundaries
	if *s.kinds != nil {
		bs, _ = explore.FilterKinds(bs, *s.kinds) // the names were checked at flag parsing
	}
	bs = explore.Shard(bs, s.shard[0], s.shard[1])
	return tr, explore.Sample(bs, *s.budget), len(bs)
}

// progress returns the -v progress printer; of follows the done count.
func (s *sweep) progress(of string) func(int, explore.Verdict) {
	if !*s.verbose || *s.json {
		return nil
	}
	return func(done int, v explore.Verdict) {
		status := "pass"
		if !v.Pass {
			status = "FAIL: " + v.Err
		}
		fmt.Fprintf(s.out, "  [%d%s] %s %s\n", done, of, strings.Join(v.Schedule, ","), status)
	}
}

// verdicts prints vs, as NDJSON under -json and otherwise as each failure
// with its reproduce hint, and returns how many failed.
func (s *sweep) verdicts(sp explore.Spec, vs []explore.Verdict) (failed int) {
	enc := json.NewEncoder(s.out)
	for _, v := range vs {
		if !v.Pass {
			failed++
		}
		if *s.json {
			enc.Encode(v)
		} else if !v.Pass {
			fmt.Fprintf(s.out, "FAIL %s at %s: %s\n", sp.Name, strings.Join(v.Schedule, "+"), v.Err)
			fmt.Fprintf(s.out, "  reproduce: svm fi -app %s%s -boundary '%s'\n",
				s.apps, s.repro, strings.Join(v.Schedule, ","))
		}
	}
	return failed
}

// one explores the -boundary schedule and prints its verdict, followed on
// a failure by each node's last flight-recorder events.
func (s *sweep) one(sp explore.Spec) int {
	tr, _, _ := s.record(sp)
	if tr == nil {
		return 1
	}
	v, rec := explore.Replay(sp, *s.schedule, tr.Budget())
	enc := json.NewEncoder(s.out)
	enc.SetIndent("", "  ")
	enc.Encode(v)
	if v.Pass {
		return 0
	}
	if rec != nil {
		rec.Dump(s.out, 8)
	}
	return 1
}

// boundaries sweeps sp's single failure points, returning the number of
// failed verdicts.
func (s *sweep) boundaries(sp explore.Spec) int {
	t0 := time.Now()
	tr, bs, eligible := s.record(sp)
	if tr == nil {
		return 1
	}
	vs := explore.Sweep(sp, bs, tr.Budget(), *s.workers, s.progress(fmt.Sprintf("/%d", len(bs))))
	failed := s.verdicts(sp, vs)
	if !*s.json {
		fmt.Fprintf(s.out, "%s: %d/%d boundaries pass (%d recorded, %d eligible, %d swept, %.1fs)\n",
			sp.Name, len(vs)-failed, len(vs), len(tr.Boundaries), eligible, len(vs), time.Since(t0).Seconds())
		if *s.verbose {
			fmt.Fprintf(s.out, "  kinds: %s\n", explore.KindHistogram(tr.Boundaries))
		}
	}
	return failed
}

// pairs explores the ordered failure-point pairs rooted at each swept
// boundary of sp, returning the number of failed verdicts.
func (s *sweep) pairs(sp explore.Spec) int {
	t0 := time.Now()
	tr, firsts, _ := s.record(sp)
	if tr == nil {
		return 1
	}
	_, vs, err := explore.ExplorePairs(sp, firsts, *s.seconds, tr.Budget(), *s.workers, s.progress(""))
	if err != nil {
		fmt.Fprintf(s.errw, "svm fi: %s: pair discovery failed: %v\n", sp.Name, err)
		return 1
	}
	failed, injectedBoth := s.verdicts(sp, vs), 0
	for _, v := range vs {
		if len(v.Injected) == 2 {
			injectedBoth++
		}
	}
	if !*s.json {
		fmt.Fprintf(s.out, "%s: %d/%d pairs pass (%d firsts, %d with both kills injected, %.1fs)\n",
			sp.Name, len(vs)-failed, len(vs), len(firsts), injectedBoth, time.Since(t0).Seconds())
	}
	return failed
}
