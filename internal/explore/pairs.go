package explore

import (
	"fmt"

	"ftsvm/internal/obs"
)

// Pair is one ordered failure-point pair: a first kill at First, then a
// second kill at Second in the re-execution that follows it. Second's
// occurrence is counted from the start of the run (not from the
// injection), so the pair is directly a two-kill schedule.
type Pair struct {
	First  Boundary
	Second Boundary
}

// Schedule renders the pair as an ExploreSchedule input.
func (p Pair) Schedule() []Boundary { return []Boundary{p.First, p.Second} }

// ID renders the pair's stable coordinate, e.g.
// "release.phase1@n2#3+msg.deliver@n0#41".
func (p Pair) ID() string { return p.First.ID() + "+" + p.Second.ID() }

// DiscoverSeconds runs the workload once with a kill injected by hand at
// first, recording every boundary that fires after the injection on a
// still-live node — including the boundaries of the recovery episode
// itself (recovery.*, the mid-recovery failure points) — as a candidate
// second coordinate. Because injection runs replay the recording's
// deterministic prefix, and the discovery run is itself the single-kill
// injection run, every returned coordinate names a real event of the
// two-kill schedule's prefix.
func DiscoverSeconds(sp Spec, first Boundary, budget int64) ([]Boundary, error) {
	seconds := getChunks()
	defer chunkPool.Put(seconds)
	if err := discover(sp, first, budget, seconds); err != nil {
		return nil, err
	}
	return seconds.sample(0), nil
}

// discover is DiscoverSeconds collecting into seconds, which it empties
// first.
func discover(sp Spec, first Boundary, budget int64, seconds *chunks) error {
	x, err := instrument(sp, 0, false, false, budget)
	if err != nil {
		return fmt.Errorf("explore: %w", err)
	}
	seconds.n = 0
	injected := false
	runErr := x.run(func(e obs.Event) {
		n, act := x.next(e)
		if !act {
			return
		}
		if !injected && e.Kind == first.Kind && e.Node == first.Node && n == first.Occ {
			injected = true
			x.kill(e.Node)
			return
		}
		if injected && !x.Cluster.NodeDead(int(e.Node)) {
			seconds.add(Boundary{Kind: e.Kind, Node: e.Node, Occ: n})
		}
	})
	if runErr != nil {
		return fmt.Errorf("explore: %s discovery at %s: %w", sp.Name, first.ID(), runErr)
	}
	if !injected {
		return fmt.Errorf("explore: %s: boundary %s never fired in discovery run", sp.Name, first.ID())
	}
	return nil
}

// ExplorePairs enumerates and re-executes ordered failure-point pairs:
// for each first boundary, one discovery run captures the boundaries of
// the post-first-failure re-execution, up to secondsPer of them are
// evenly sampled (0: all), and each (first, second) pair becomes a
// two-kill schedule swept on the worker pool. Returns the pairs and
// their verdicts in matching order.
//
// At replication degree k >= 3 the second kill is genuinely injected
// (including mid-recovery) and the run is held to the same auditor,
// self-check, replica/availability invariants, and consistency oracle
// as single-kill sweeps; at k = 2 second kills are refused by the
// failure model, which makes a pair sweep a refusal-rule test instead.
func ExplorePairs(sp Spec, firsts []Boundary, secondsPer int, budget int64, workers int, progress func(done int, v Verdict)) ([]Pair, []Verdict, error) {
	var pairs []Pair
	seconds := getChunks()
	defer chunkPool.Put(seconds)
	for _, b1 := range firsts {
		if err := discover(sp, b1, budget, seconds); err != nil {
			return nil, nil, err
		}
		for _, b2 := range seconds.sample(secondsPer) {
			pairs = append(pairs, Pair{First: b1, Second: b2})
		}
	}
	schedules := make([][]Boundary, len(pairs))
	for i, p := range pairs {
		schedules[i] = p.Schedule()
	}
	vs := SweepSchedules(sp, schedules, budget, workers, progress)
	return pairs, vs, nil
}
