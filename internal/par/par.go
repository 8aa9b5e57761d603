// Package par is the repository's one bounded fan-out: run fn over the
// indices [0, n) on a few goroutines and surface the lowest-index error,
// so the reported error never depends on goroutine interleaving.
package par

import (
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0..n-1) on up to workers goroutines (workers <= 1 runs
// them in order on the caller's goroutine) and returns the error of the
// lowest-index failing call. Every index runs even after a failure: a
// caller that collects per-index results sees the same set for every
// worker count. Workers claim indices from a shared atomic counter, so
// an uneven call costs one worker, not a fixed slice of the range.
//
// fn(i) must touch only state owned by index i (or read-only shared
// state); that is what makes the results independent of workers.
func ForEach(n, workers int, fn func(i int) error) error {
	return ForEachWorker(n, workers, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach that also tells fn which worker runs index i:
// w is in [0, min(workers, n)), and w = 0 when the calls run serially.
// One worker runs its indices one at a time, so state indexed by w
// (scratch buffers, per-worker solvers) needs no locking. Scheduling and
// the error rule are ForEach's.
func ForEachWorker(n, workers int, fn func(w, i int) error) error {
	workers = min(workers, n)
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(0, i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = fn(w, i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
