package explore

import "ftsvm/internal/par"

// Sweep runs one injection per boundary on a pool of up to workers
// goroutines (workers <= 0: GOMAXPROCS), and returns the verdicts in
// input order. Every injection run owns a fresh instance — engine,
// cluster, workload — so the worker count changes wall-clock time only,
// never a verdict, and callers that emit verdicts by iterating the
// returned slice get a stable order regardless of completion order.
// progress, when non-nil, is called once per completed run (serialized,
// in completion order).
func Sweep(sp Spec, bs []Boundary, budget int64, workers int, progress func(done int, v Verdict)) []Verdict {
	return par.Map(bs, workers, func(b Boundary) Verdict { return ExploreSchedule(sp, []Boundary{b}, budget) }, progress)
}

// Shard selects the i-th of n interleaved slices of bs (every boundary
// whose index ≡ i mod n), for splitting one sweep across machines: the
// n shards partition the boundary list, and because boundaries carry
// stable ids the union of the shards' verdicts equals one full sweep.
// Interleaving (rather than contiguous ranges) balances the shards, as
// neighbouring boundaries tend to have similar run costs.
func Shard(bs []Boundary, i, n int) []Boundary {
	if n <= 1 {
		return bs
	}
	var out []Boundary
	for k := i; k < len(bs); k += n {
		out = append(out, bs[k])
	}
	return out
}
