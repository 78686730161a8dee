// Package par runs independent jobs on a pool of host goroutines: the
// one worker pool behind the benchmark grid (harness.RunGrid), the
// serving matrix and the failure-point sweeps. Every job the simulator
// hands it builds its own engine and cluster, so the worker count
// changes wall-clock time only, never a result.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map calls fn on every element of in and returns the results in input
// order. It runs up to workers calls at once (workers <= 0: GOMAXPROCS;
// never more than len(in)), one of them on the caller's goroutine, so
// with one worker nothing else is started. progress, when non-nil, is
// called once per result as it completes, one call at a time, with done
// counting 1..len(in).
func Map[T, R any](in []T, workers int, fn func(T) R, progress func(done int, r R)) []R {
	out := make([]R, len(in))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(in))
	var next atomic.Int64
	var mu sync.Mutex
	done := 0
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(in); i = int(next.Add(1)) - 1 {
			out[i] = fn(in[i])
			if progress != nil {
				mu.Lock()
				done++
				progress(done, out[i])
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return out
}
