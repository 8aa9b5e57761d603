package release

import (
	"sync/atomic"

	"strippack/internal/geom"
)

// Solver is a reusable front end for SolveCG that counts its solves. It
// keeps no state between solves besides the options and the counter: every
// Solve runs the same cold column generation as SolveCG, from the
// singleton start, so its configurations, solution, height and stats are
// bit-identical to SolveCG's on the same instance, also under concurrent
// use.
//
// Solver is safe for concurrent use.
type Solver struct {
	opts   CGOptions
	solves atomic.Int64
}

// SolverStats aggregates activity across a Solver's lifetime.
type SolverStats struct {
	Solves int // successful Solve calls
	// PoolHits is always 0: no solve reuses another's columns. The field
	// stays because the repository benchmark (perfbench) reports it.
	PoolHits int
}

// NewSolver returns a Solver whose solves use the given column-generation
// options.
func NewSolver(opts CGOptions) *Solver {
	return &Solver{opts: opts}
}

// Solve validates the instance and solves its configuration LP exactly
// as SolveCG does, counting the solve when it succeeds.
func (s *Solver) Solve(in *geom.Instance) (*FractionalSolution, *CGStats, error) {
	fs, st, err := solveCG(in, s.opts, false)
	if err != nil {
		return nil, nil, err
	}
	s.solves.Add(1)
	return fs, st, nil
}

// Stats returns a snapshot of the aggregate statistics.
func (s *Solver) Stats() SolverStats {
	return SolverStats{Solves: int(s.solves.Load())}
}
