package fpga

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Batched submission.
//
// A service shard draining a request queue submits tasks hundreds at a
// time, and the sequential Submit path makes each one pay for a full run
// extraction from the segment tree, a candidate sort, and O(log K) pushes
// per range-max probe. SubmitBatch amortizes all three across the batch:
//
//   - The batch is sorted into (release, index) order once, so the event
//     queue advances once per distinct release instead of once per task.
//     Skipping the repeat advance is exact, not approximate: every compQ
//     key set after an advance exceeds the clock (Start >= floor and
//     actual > 0), so no completion can become due until the floor moves,
//     and the one observable thing a same-floor AdvanceTo could still do —
//     promote a task that a compaction slide parked exactly at the clock —
//     is performed inline (see submit).
//   - The horizon tree keeps its maximal-run decomposition cached across
//     the batch's assigns (crunsAssign splices each placement into the run
//     list in place) instead of re-walking the tree per submission, and
//     bestWindowCached evaluates the identical candidate set with a merged
//     two-stream generation (no sort) and a monotonic-deque sliding window
//     maximum (no per-candidate tree query).
//   - The per-task state slices grow once for the whole batch.
//
// Equivalence contract: SubmitBatch(specs) leaves the scheduler in a state
// byte-identical (per Snapshot) to calling Submit/SubmitWithLifetime for
// the same specs one at a time in (release, index) order, skipping
// submissions refused by admission control — including every reject and
// shed outcome along the way. TestSubmitBatchEquivalence and
// FuzzSubmitBatch enforce this against the sequential path, which is why
// the sequential path deliberately keeps its independent tree-walking
// window search.

// TaskSpec describes one submission of a batch. Actual == 0 (the zero
// value) submits by declared duration only, exactly like Submit; a
// positive Actual registers the lifetime, exactly like SubmitWithLifetime.
type TaskSpec struct {
	ID       int
	Name     string
	Cols     int
	Duration float64
	Actual   float64 // 0 = no registered lifetime
	Release  float64
}

// SubmitBatch submits the specs in (Release, index) order — the order a
// caller draining a time-ordered stream would use with Submit — and
// returns the placed tasks in that submission order. Submissions refused
// by admission control (errors matching ErrRejected) are skipped, visible
// in Load().Rejected and ShedIDs() just as for sequential submission. Any
// other error aborts the batch at the offending spec: earlier placements
// stay (identical to a sequential loop stopping at the first hard error)
// and the tasks placed so far are returned alongside the error.
func (o *OnlineScheduler) SubmitBatch(specs []TaskSpec) ([]Task, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	// The sort key must be total: a non-finite release would make the order
	// (and therefore which spec's error surfaces) depend on sort internals.
	// submit would reject it anyway, so reject it up front, by input index.
	for i := range specs {
		if r := specs[i].Release; math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("%w: batch spec %d (task %d) has non-finite release %g",
				ErrNonFinite, i, specs[i].ID, r)
		}
	}
	order := o.batchOrder[:0]
	for i := range specs {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int {
		switch {
		case specs[a].Release < specs[b].Release:
			return -1
		case specs[a].Release > specs[b].Release:
			return 1
		default:
			return int(a - b)
		}
	})
	o.batchOrder = order
	o.grow(len(specs))
	placed := make([]Task, 0, len(specs))
	bs := &batchState{}
	for _, oi := range order {
		sp := &specs[oi]
		// SubmitWithLifetime validates the lifetime in its wrapper rather
		// than in submit, so the batch path must repeat it here — at the
		// spec's sorted position, so the same spec's error surfaces first.
		actual := math.NaN()
		if sp.Actual != 0 {
			actual = sp.Actual
			switch {
			case math.IsNaN(actual) || math.IsInf(actual, 0):
				return placed, fmt.Errorf("%w: task %d has non-finite actual lifetime %g", ErrNonFinite, sp.ID, actual)
			case actual <= 0:
				return placed, fmt.Errorf("%w: task %d has non-positive actual lifetime %g", ErrInvalidTask, sp.ID, actual)
			case actual > sp.Duration:
				return placed, fmt.Errorf("%w: task %d actual lifetime %g exceeds declared duration %g", ErrInvalidTask, sp.ID, actual, sp.Duration)
			}
		}
		t, err := o.submit(sp.ID, sp.Name, sp.Cols, sp.Duration, actual, sp.Release, bs)
		if err != nil {
			if errors.Is(err, ErrRejected) {
				continue
			}
			return placed, err
		}
		placed = append(placed, t)
	}
	return placed, nil
}

// grow pre-extends the per-task state for n upcoming submissions so the
// batch loop appends without reallocating.
func (o *OnlineScheduler) grow(n int) {
	o.tasks = slices.Grow(o.tasks, n)
	o.done = slices.Grow(o.done, n)
	o.shed = slices.Grow(o.shed, n)
	o.started = slices.Grow(o.started, n)
	o.actual = slices.Grow(o.actual, n)
	if o.policy == ReclaimCompact {
		o.firstNode = slices.Grow(o.firstNode, n)
	}
}
