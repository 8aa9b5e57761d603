package release

import (
	"fmt"
	"sync"

	"strippack/internal/geom"
)

// Solver is a reusable column-generation engine: a SolveCG front-end wrapping
// a persistent column pool per (strip width, distinct width set) key. Each
// Solve bulk-loads the pooled configurations into the fresh restricted
// master (one lp.Revised.AddColumns batch after a Reserve sized from the
// pool); the configurations a solve generates are appended back to the pool
// (deduped by packed multiplicity vector) for the next request. A fresh
// Solver's first solve of a width set sees an empty pool and reproduces
// SolveCG exactly.
//
// What the pool buys is fewer pricing rounds (1–2 instead of 3–8), not
// less time: the seeded columns enlarge the master and Bland's rule then
// pivots more. On a 2-vCPU Xeon a pooled solve took 0.78 vs 0.62 ms on the
// solve benchmark's FPGA(40, K 4/5/6, 3) family, 250 vs 115 ms on
// FPGA(100, 16, 10) and 2.6 vs 1.5 ms on five continuous widths, and broke
// even on E7-sized instances solved repeatedly. The pool stays on by
// default; CGOptions.DisablePool turns it off.
//
// Determinism contract: a pooled solve still runs column generation to
// optimality, so its height is the configuration LP's optimum no matter
// which columns were seeded — the pool affects only the simplex path and
// therefore perturbs results by LP round-off (within 1e-9 of the poolless
// SolveCG height, property- and fuzz-tested). Given a fixed solve sequence
// the pool state, the seeded column order (pool insertion order) and every
// result are fully reproducible; under concurrent use (RunGrid workers
// sharing a BoundCache) the interleaving may vary which snapshot a solve
// sees, moving results only within that same 1e-9 envelope — which the
// experiment tables' fixed-precision rendering absorbs, as `make
// determinism` enforces end-to-end across worker counts and pool on/off.
// The poolless path (SolveCG, or CGOptions.DisablePool) remains the
// reference oracle.
//
// Solver is safe for concurrent use.
type Solver struct {
	opts CGOptions

	mu    sync.Mutex
	pools map[string]*configPool
	stats SolverStats
}

// SolverStats aggregates pool activity across a Solver's lifetime.
type SolverStats struct {
	Solves        int // successful Solve calls
	WidthSets     int // distinct (strip width, width set) pools
	PoolHits      int // solves that bulk-loaded at least one pooled configuration
	PooledColumns int // configurations bulk-loaded across all solves
	NewColumns    int // configurations newly appended to pools across all solves
}

// NewSolver returns a Solver with empty pools whose solves use the given
// column-generation options.
func NewSolver(opts CGOptions) *Solver {
	return &Solver{opts: opts, pools: make(map[string]*configPool)}
}

// Solve runs the configuration LP of the instance through column generation
// warm-started from the pool of its width set, and feeds the generated
// configurations back. The returned solution and stats have the same shape
// as SolveCG's; CGStats.PooledColumns and CGStats.PoolHits report the warm
// start's size and usefulness.
func (s *Solver) Solve(in *geom.Instance) (*FractionalSolution, *CGStats, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	if in.N() == 0 {
		return nil, nil, fmt.Errorf("release: empty instance")
	}
	if s.opts.DisablePool {
		fs, st, err := solveCG(in, s.opts, nil, false)
		if err != nil {
			return nil, nil, err
		}
		s.mu.Lock()
		s.stats.Solves++
		s.mu.Unlock()
		return fs, st, nil
	}
	key := poolKey(in.StripWidth(), DistinctWidths(in))
	s.mu.Lock()
	pool, ok := s.pools[key]
	if !ok {
		pool = newConfigPool()
		s.pools[key] = pool
	}
	seed := pool.snapshot()
	s.mu.Unlock()

	fs, st, err := solveCG(in, s.opts, seed, false)
	if err != nil {
		return nil, nil, err
	}

	s.mu.Lock()
	added := 0
	for _, c := range fs.Model.Configs {
		if pool.add(c) {
			added++
		}
	}
	s.stats.Solves++
	s.stats.WidthSets = len(s.pools)
	if st.PooledColumns > 0 {
		s.stats.PoolHits++
	}
	s.stats.PooledColumns += st.PooledColumns
	s.stats.NewColumns += added
	s.mu.Unlock()
	return fs, st, nil
}

// Stats returns a snapshot of the aggregate pool statistics.
func (s *Solver) Stats() SolverStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
