// Command svmfi is the exhaustive failure-point explorer: it runs a
// workload once to enumerate every protocol-step boundary, then
// re-executes it once per boundary with a fail-stop injected exactly
// there, holding each run to the invariant auditor, the workload's own
// result check, the replica/availability invariants, and the
// memory-consistency oracle's causal replay of the commit log.
//
// Usage:
//
//	svmfi -app counter,falseshare -size small -nodes 4
//	svmfi -app counter -budget 200 -workers 8 -json
//	svmfi -app counter -shard 1/4 -json     # machine 2 of 4
//	svmfi -app counter -kinds release.phase1,ckpt.A
//	svmfi -app counter -boundary 'release.phase1@n2#3'
//	svmfi -app counter -nodes 6 -degree 3 -pairs -budget 16 -seconds 9
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
// seed): rerun it with -boundary 'id' or -boundary 'id1,id2'.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ftsvm/internal/explore"
	"ftsvm/internal/harness"
	"ftsvm/internal/model"
	"ftsvm/internal/svm"
)

func main() {
	appsFlag := flag.String("app", "counter,falseshare", "comma-separated applications to sweep")
	size := flag.String("size", "small", "problem size: small, medium, paper")
	nodes := flag.Int("nodes", 4, "cluster nodes")
	tierFlag := flag.String("tier", "", "scale tier preset: paper, large (64 nodes), huge (256 nodes), xlarge (512 nodes, hashed directory); overrides -nodes")
	threads := flag.Int("threads", 1, "compute threads per node")
	lock := flag.String("lock", "polling", "lock algorithm: polling (the queue lock has no FT variant)")
	detect := flag.String("detect", "oracle", "failure detection: oracle, probe")
	seed := flag.Int64("seed", 1, "simulation seed")
	budget := flag.Int("budget", 0, "cap the sweep at this many boundaries, evenly sampled (0: exhaustive)")
	workers := flag.Int("workers", 0, "parallel injection runs (0: GOMAXPROCS)")
	shard := flag.String("shard", "", "multi-machine split i/n: sweep only boundaries with index = i mod n")
	kinds := flag.String("kinds", "", "restrict to these boundary kinds (comma-separated)")
	boundary := flag.String("boundary", "", "explore one schedule: a boundary id (kind@nN#occ) or a comma-separated list, and print its verdict")
	pairs := flag.Bool("pairs", false, "sweep ordered failure-point pairs: every swept boundary as a first kill, -seconds second kills each")
	seconds := flag.Int("seconds", 8, "with -pairs: second kills per first boundary, evenly sampled from the post-failure re-execution (0: all)")
	degree := flag.Int("degree", 2, "home-replication degree k: k-1 overlapping failures tolerated (2 = the paper's primary/secondary)")
	jsonOut := flag.Bool("json", false, "emit one JSON verdict per line instead of a summary")
	verbose := flag.Bool("v", false, "print per-boundary progress and the kind histogram")
	flag.Parse()

	if *lock != "polling" {
		fmt.Fprintln(os.Stderr, "svmfi: only the polling lock has a fault-tolerant variant (§4.3)")
		os.Exit(2)
	}
	det := model.DetectionMode(0)
	if *detect == "probe" {
		det = model.DetectProbe
	}
	shardI, shardN, err := parseShard(*shard)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svmfi: %v\n", err)
		os.Exit(2)
	}
	sz, err := harness.ParseSize(*size)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svmfi: %v\n", err)
		os.Exit(2)
	}
	tier, err := harness.ParseTier(*tierFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svmfi: %v\n", err)
		os.Exit(2)
	}
	cellNodes := *nodes
	if tier != harness.TierPaper {
		// The tier fixes the cluster shape; -nodes keeps its default role
		// only on the paper tier.
		cellNodes = 0
	}

	// Non-default spec-shaping flags, echoed into reproduce hints so a
	// pasted command rebuilds the exact cluster the failure needs.
	repro := ""
	if *size != "small" {
		repro += " -size " + *size
	}
	if *tierFlag != "" {
		repro += " -tier " + *tierFlag
	} else if *nodes != 4 {
		repro += fmt.Sprintf(" -nodes %d", *nodes)
	}
	if *threads != 1 {
		repro += fmt.Sprintf(" -threads %d", *threads)
	}
	if *detect != "oracle" {
		repro += " -detect " + *detect
	}
	if *seed != 1 {
		repro += fmt.Sprintf(" -seed %d", *seed)
	}
	if *degree != 2 {
		repro += fmt.Sprintf(" -degree %d", *degree)
	}

	failed := 0
	for _, app := range strings.Split(*appsFlag, ",") {
		app = strings.TrimSpace(app)
		if app == "" {
			continue
		}
		sp := harness.ExploreSpec(harness.Config{
			App: app, Size: sz, Tier: tier,
			Nodes: cellNodes, ThreadsPerNode: *threads,
			LockAlgo: svm.LockPolling, Detection: det,
			Overrides: func(cfg *model.Config) {
				cfg.Seed = *seed
				cfg.ReplicaDegree = *degree
			},
		})
		if *pairs && *boundary == "" {
			failed += sweepPairs(sp, repro, *budget, *seconds, *workers, shardI, shardN, *kinds, *jsonOut, *verbose)
		} else {
			failed += sweepApp(sp, repro, *boundary, *budget, *workers, shardI, shardN, *kinds, *jsonOut, *verbose)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// parseShard parses the -shard value "i/n" (empty: no split).
func parseShard(s string) (i, n int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	if _, err := fmt.Sscanf(s, "%d/%d", &i, &n); err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q: want i/n, e.g. 0/4", s)
	}
	if n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("bad -shard %q: need 0 <= i < n", s)
	}
	return i, n, nil
}

// sweepApp records one workload's boundaries and explores them,
// returning the number of failed verdicts.
func sweepApp(sp explore.Spec, repro, boundary string, budget, workers, shardI, shardN int, kinds string, jsonOut, verbose bool) int {
	t0 := time.Now()
	tr, err := explore.Record(sp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svmfi: %s: baseline recording failed: %v\n", sp.Name, err)
		return 1
	}

	if boundary != "" {
		var schedule []explore.Boundary
		for _, id := range strings.Split(boundary, ",") {
			b, err := explore.ParseID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintf(os.Stderr, "svmfi: %v\n", err)
				return 1
			}
			schedule = append(schedule, b)
		}
		v := explore.ExploreSchedule(sp, schedule, tr.Budget())
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(v)
		if v.Pass {
			return 0
		}
		return 1
	}

	bs := tr.Boundaries
	if kinds != "" {
		bs, err = explore.FilterKinds(bs, strings.Split(kinds, ","))
		if err != nil {
			fmt.Fprintf(os.Stderr, "svmfi: %v\n", err)
			return 1
		}
	}
	bs = explore.Shard(bs, shardI, shardN)
	total := len(bs)
	if budget > 0 && budget < total {
		bs = explore.Sample(bs, budget)
	}

	progress := func(done int, v explore.Verdict) {}
	if verbose && !jsonOut {
		progress = func(done int, v explore.Verdict) {
			status := "pass"
			if !v.Pass {
				status = "FAIL: " + v.Err
			}
			fmt.Printf("  [%d/%d] %s %s\n", done, len(bs), strings.Join(v.Schedule, ","), status)
		}
	}
	vs := explore.Sweep(sp, bs, tr.Budget(), workers, progress)

	failed := 0
	enc := json.NewEncoder(os.Stdout)
	for i, v := range vs {
		if !v.Pass {
			failed++
		}
		if jsonOut {
			enc.Encode(v)
		} else if !v.Pass {
			fmt.Printf("FAIL %s at %s: %s\n", sp.Name, bs[i].ID(), v.Err)
			fmt.Printf("  reproduce: svmfi -app %s%s -boundary '%s'\n", strings.SplitN(sp.Name, "/", 2)[0], repro, bs[i].ID())
		}
	}
	if !jsonOut {
		fmt.Printf("%s: %d/%d boundaries pass (%d recorded, %d eligible, %d swept, %.1fs)\n",
			sp.Name, len(vs)-failed, len(vs), len(tr.Boundaries), total, len(vs), time.Since(t0).Seconds())
		if verbose {
			fmt.Printf("  kinds: %s\n", explore.KindHistogram(tr.Boundaries))
		}
	}
	return failed
}

// sweepPairs records one workload's boundaries and explores ordered
// failure-point pairs rooted at each swept boundary, returning the
// number of failed verdicts.
func sweepPairs(sp explore.Spec, repro string, budget, secondsPer, workers, shardI, shardN int, kinds string, jsonOut, verbose bool) int {
	t0 := time.Now()
	tr, err := explore.Record(sp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svmfi: %s: baseline recording failed: %v\n", sp.Name, err)
		return 1
	}
	firsts := tr.Boundaries
	if kinds != "" {
		firsts, err = explore.FilterKinds(firsts, strings.Split(kinds, ","))
		if err != nil {
			fmt.Fprintf(os.Stderr, "svmfi: %v\n", err)
			return 1
		}
	}
	firsts = explore.Shard(firsts, shardI, shardN)
	if budget > 0 && budget < len(firsts) {
		firsts = explore.Sample(firsts, budget)
	}

	progress := func(done int, v explore.Verdict) {}
	if verbose && !jsonOut {
		progress = func(done int, v explore.Verdict) {
			status := "pass"
			if !v.Pass {
				status = "FAIL: " + v.Err
			}
			fmt.Printf("  [%d] %s %s\n", done, strings.Join(v.Schedule, ","), status)
		}
	}
	pairs, vs, err := explore.ExplorePairs(sp, firsts, secondsPer, tr.Budget(), workers, progress)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svmfi: %s: pair discovery failed: %v\n", sp.Name, err)
		return 1
	}

	failed, injectedBoth := 0, 0
	enc := json.NewEncoder(os.Stdout)
	for i, v := range vs {
		if !v.Pass {
			failed++
		}
		if len(v.Injected) == 2 {
			injectedBoth++
		}
		if jsonOut {
			enc.Encode(v)
		} else if !v.Pass {
			fmt.Printf("FAIL %s at %s: %s\n", sp.Name, pairs[i].ID(), v.Err)
			fmt.Printf("  reproduce: svmfi -app %s%s -boundary '%s,%s'\n",
				strings.SplitN(sp.Name, "/", 2)[0], repro, pairs[i].First.ID(), pairs[i].Second.ID())
		}
	}
	if !jsonOut {
		fmt.Printf("%s: %d/%d pairs pass (%d firsts, %d with both kills injected, %.1fs)\n",
			sp.Name, len(vs)-failed, len(vs), len(firsts), injectedBoth, time.Since(t0).Seconds())
	}
	return failed
}
