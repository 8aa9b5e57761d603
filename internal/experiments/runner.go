package experiments

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallelism is the worker-pool width used by RunGrid. It defaults to
// GOMAXPROCS; cmd/experiments exposes it as -parallel and the benchmarks
// sweep it. The determinism contract below holds for every value >= 1.
var Parallelism = runtime.GOMAXPROCS(0)

// Trial identifies one unit of work in an experiment's grid: the Row it
// contributes a measurement to, the repetition number within that row, and
// its global Index in row-major order. Seed is the per-trial RNG seed,
// baseSeed ^ Index, so every trial draws from an independent, reproducible
// stream no matter which worker runs it.
type Trial struct {
	Row   int
	Rep   int
	Index int
	Seed  int64
}

// RunGrid executes a rows x reps trial grid on a shared worker pool and
// returns the results grouped by row, reps in order.
//
// Determinism contract: for a fixed baseSeed the output — including which
// error is reported when several trials fail — is byte-for-byte independent
// of Parallelism. Each trial gets a private *rand.Rand seeded
// baseSeed ^ trialIndex, results land in a slot preallocated for their
// index, and errors are scanned in trial order after the pool drains.
func RunGrid[T any](rows, reps int, baseSeed int64, fn func(t Trial, rng *rand.Rand) (T, error)) ([][]T, error) {
	n := rows * reps
	results := make([]T, n)
	errs := make([]error, n)
	// failed stops the pool scheduling new trials once any trial errors.
	// Indices are claimed in increasing order, so every trial below the one
	// that tripped the flag has already been claimed and will finish —
	// the minimum-index error always runs, keeping the reported error
	// independent of both Parallelism and goroutine timing.
	var failed atomic.Bool
	run := func(i int) {
		t := Trial{Row: i / reps, Rep: i % reps, Index: i, Seed: baseSeed ^ int64(i)}
		results[i], errs[i] = fn(t, rand.New(rand.NewSource(t.Seed)))
		if errs[i] != nil {
			failed.Store(true)
		}
	}
	workers := Parallelism
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && !failed.Load(); i++ {
			run(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for !failed.Load() {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([][]T, rows)
	for r := 0; r < rows; r++ {
		out[r] = results[r*reps : (r+1)*reps]
	}
	return out, nil
}
