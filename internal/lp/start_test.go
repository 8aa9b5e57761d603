package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// startRun is one Revised solve of a Problem with an optional start basis,
// instrumented through the afterPivot hook.
type startRun struct {
	sol     *Solution
	r       *Revised
	phase1  int   // pivots made under the phase-1 objective
	midBase []int // basis after the first phase-2 pivot (primal feasible)
}

// loadRevised builds a Revised over p's rows and adds p's columns in order
// through AddColumn.
func loadRevised(t testing.TB, p *Problem) *Revised {
	t.Helper()
	r := newRevisedFromProblem(p)
	costs, starts, idx, val := batchFromProblem(p)
	for j, c := range costs {
		if _, err := r.AddColumn(c, idx[starts[j]:starts[j+1]], val[starts[j]:starts[j+1]]); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// solveStart loads p into a fresh Revised, installs start when non-nil,
// and solves, checking after every pivot that the incrementally updated
// multipliers match a fresh c_B·B⁻¹ to 1e-9 relative.
func solveStart(t testing.TB, p *Problem, start []int) startRun {
	t.Helper()
	r := loadRevised(t, p)
	if start != nil {
		if err := r.SetStartBasis(start); err != nil {
			t.Fatal(err)
		}
	}
	run := startRun{r: r}
	r.afterPivot = func(phase1 bool) {
		if phase1 {
			run.phase1++
		} else if run.midBase == nil {
			run.midBase = slices.Clone(r.basis)
		}
		checkDuals(t, r, phase1)
	}
	sol, err := r.Solve()
	if err != nil {
		t.Fatal(err)
	}
	run.sol = sol
	return run
}

// checkDuals compares r.y with c_B·B⁻¹ computed from scratch.
func checkDuals(t testing.TB, r *Revised, phase1 bool) {
	t.Helper()
	m := r.m
	fresh := make([]float64, m)
	for i, b := range r.basis {
		cb := r.costOf(b, phase1)
		for j := 0; j < m; j++ {
			fresh[j] += cb * r.binv[i*m+j]
		}
	}
	scale := 1.0
	for _, v := range fresh {
		scale = math.Max(scale, math.Abs(v))
	}
	for j := range fresh {
		if d := math.Abs(r.y[j] - fresh[j]); d > 1e-9*scale {
			t.Fatalf("after pivot %d: y[%d] = %g, fresh c_B·B⁻¹ = %g (|Δ| = %g)", r.iters, j, r.y[j], fresh[j], d)
		}
	}
}

// startFromBasis turns a basis (column indices of a solved Revised) into a
// SetStartBasis argument: each basic slack or surplus names its own row as
// Logical and the structural columns fill the other rows in basis order.
// ok is false when the basis holds an artificial, which no start can name.
func startFromBasis(r *Revised, basis []int) (start []int, ok bool) {
	start = make([]int, r.m)
	taken := make([]bool, r.m)
	var structural []int
	for _, b := range basis {
		switch r.kinds[b] {
		case kindArtificial:
			return nil, false
		case kindStructural:
			structural = append(structural, int(r.poss[b]))
		default:
			row := r.colIdx[r.colStart[b]]
			start[row], taken[row] = Logical, true
		}
	}
	for i := range start {
		if !taken[i] {
			start[i], structural = structural[0], structural[1:]
		}
	}
	return start, true
}

// sameSolution reports whether two solves agree bit for bit.
func sameSolution(a, b *Solution) bool {
	return a.Status == b.Status && a.Objective == b.Objective &&
		a.Iterations == b.Iterations && a.BasicCount == b.BasicCount &&
		slices.Equal(a.X, b.X) && slices.Equal(a.Duals, b.Duals)
}

// startInstalled reports whether the start basis is kept by init (and so
// skips phase 1) rather than dropped for the artificial start.
func startInstalled(t testing.TB, p *Problem, start []int) bool {
	t.Helper()
	r := loadRevised(t, p)
	if err := r.SetStartBasis(start); err != nil {
		t.Fatal(err)
	}
	r.init()
	return r.feasible
}

// checkStartEquivalence runs p without a start and with every start it can
// derive: the no-start optimum's basis and a feasible basis from the
// middle of phase 2 (both must be installed, make no phase-1 pivots and
// reach the same status and objective), plus an all-Logical start, a
// singular one and the given extra starts, each of which must either be
// installed and agree the same way or be dropped with a bit-identical
// result.
func checkStartEquivalence(t *testing.T, name string, p *Problem, extra ...[]int) {
	t.Helper()
	base := solveStart(t, p, nil)
	var starts [][]int
	for _, basis := range [][]int{base.r.basis, base.midBase} {
		if base.sol.Status != Optimal || basis == nil {
			continue
		}
		if start, ok := startFromBasis(base.r, basis); ok {
			if !startInstalled(t, p, start) {
				t.Fatalf("%s: feasible start %v not installed", name, start)
			}
			starts = append(starts, start)
		}
	}
	logical := make([]int, len(p.Constraints))
	for i := range logical {
		logical[i] = Logical
	}
	starts = append(starts, logical)
	if m := len(p.Constraints); m > 1 && p.NumVars > 0 {
		singular := make([]int, m) // column 0 named in every row
		if startInstalled(t, p, singular) {
			t.Fatalf("%s: singular start installed", name)
		}
		starts = append(starts, singular)
	}
	starts = append(starts, extra...)
	for _, start := range starts {
		run := solveStart(t, p, start)
		if !startInstalled(t, p, start) {
			if !sameSolution(run.sol, base.sol) {
				t.Fatalf("%s: dropped start %v gave %+v, no start %+v", name, start, run.sol, base.sol)
			}
			continue
		}
		if run.phase1 != 0 {
			t.Fatalf("%s: installed start %v made %d phase-1 pivots", name, start, run.phase1)
		}
		if run.sol.Status != base.sol.Status {
			t.Fatalf("%s: start %v status %v, no start %v", name, start, run.sol.Status, base.sol.Status)
		}
		if base.sol.Status == Optimal {
			if d := math.Abs(run.sol.Objective - base.sol.Objective); d > 1e-9*math.Max(1, math.Abs(base.sol.Objective)) {
				t.Fatalf("%s: start %v objective %.17g, no start %.17g", name, start, run.sol.Objective, base.sol.Objective)
			}
		}
	}
}

// TestStartBasisRandom is the start-basis property over random programs of
// mixed senses and signs.
func TestStartBasisRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(607))
	installed := 0
	for trial := 0; trial < 400; trial++ {
		p := randomProblem(rng, trial%2 == 0)
		checkStartEquivalence(t, "random", p)
		base := solveStart(t, p, nil)
		if base.sol.Status == Optimal {
			if start, ok := startFromBasis(base.r, base.r.basis); ok && startInstalled(t, p, start) {
				installed++
			}
		}
	}
	if installed < 100 {
		t.Fatalf("only %d optimal bases usable as starts; generator broken?", installed)
	}
}

// TestStartBasisPinned runs the property on Beale's cycling example,
// Klee–Minty cubes, degenerate programs and equality rows.
func TestStartBasisPinned(t *testing.T) {
	beale := NewProblem(4)
	beale.Objective = []float64{-0.75, 150, -0.02, 6}
	_ = beale.AddConstraint([]float64{0.25, -60, -0.04, 9}, LE, 0)
	_ = beale.AddConstraint([]float64{0.5, -90, -0.02, 3}, LE, 0)
	_ = beale.AddConstraint([]float64{0, 0, 1, 0}, LE, 1)
	checkStartEquivalence(t, "beale", beale)

	for n := 2; n <= 6; n++ {
		// max Σ 2^(n-j) x_j s.t. 2·Σ_{j<i} 2^(i-j) x_j + x_i <= 5^i.
		km := NewProblem(n)
		for j := 0; j < n; j++ {
			km.Objective[j] = -math.Pow(2, float64(n-1-j))
		}
		for i := 0; i < n; i++ {
			row := make([]float64, n)
			for j := 0; j < i; j++ {
				row[j] = math.Pow(2, float64(i-j+1))
			}
			row[i] = 1
			_ = km.AddConstraint(row, LE, math.Pow(5, float64(i+1)))
		}
		checkStartEquivalence(t, "klee-minty", km)
	}

	degen := NewProblem(2)
	degen.Objective = []float64{-1, -1}
	_ = degen.AddConstraint([]float64{1, 0}, LE, 1)
	_ = degen.AddConstraint([]float64{1, 0}, LE, 1)
	_ = degen.AddConstraint([]float64{0, 1}, LE, 1)
	checkStartEquivalence(t, "degenerate", degen, []int{0, Logical, 1})

	// A degenerate covering program: a start at a zero-valued basic column.
	cover := NewProblem(3)
	cover.Objective = []float64{1, 1, 3}
	_ = cover.AddConstraint([]float64{1, 0, 1}, GE, 2)
	_ = cover.AddConstraint([]float64{0, 1, 1}, GE, 2)
	_ = cover.AddConstraint([]float64{1, 1, 2}, GE, 4)
	checkStartEquivalence(t, "covering", cover, []int{0, 1, Logical}, []int{2, Logical, Logical})

	// EQ rows: a Logical on one needs its artificial, so the start drops.
	eq := NewProblem(2)
	eq.Objective = []float64{2, 3}
	_ = eq.AddConstraint([]float64{1, 1}, EQ, 10)
	_ = eq.AddConstraint([]float64{1, 0}, LE, 6)
	if startInstalled(t, eq, []int{Logical, Logical}) {
		t.Fatal("Logical on an EQ row installed")
	}
	checkStartEquivalence(t, "equality", eq, []int{1, 0}, []int{0, 1})

	// Negative right-hand sides flip the sense: Logical names the surplus
	// of the normalized GE row.
	neg := NewProblem(2)
	neg.Objective = []float64{1, 2}
	_ = neg.AddConstraint([]float64{-1, -1}, LE, -3)
	_ = neg.AddConstraint([]float64{1, 0}, LE, 5)
	checkStartEquivalence(t, "negative-rhs", neg, []int{0, Logical}, []int{1, Logical})
}

// TestStartBasisErrors: malformed starts are rejected, and a start cannot
// be set once the solver has run.
func TestStartBasisErrors(t *testing.T) {
	r, err := NewRevised([]Relation{LE, GE}, []float64{4, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddColumn(1, []int32{0, 1}, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{
		{0},                // too short
		{0, Logical, 0},    // too long
		{1, Logical},       // column not added yet
		{Logical - 1, 0},   // below Logical
		{0, math.MaxInt32}, // far out of range
	} {
		if err := r.SetStartBasis(bad); err == nil {
			t.Fatalf("start %v accepted", bad)
		}
	}
	if err := r.SetStartBasis([]int{Logical, 0}); err != nil {
		t.Fatal(err)
	}
	sol, err := r.Solve()
	if err != nil || sol.Status != Optimal || sol.Objective != 1 {
		t.Fatalf("solve from start: %+v, %v", sol, err)
	}
	if sol.Iterations != 0 {
		t.Fatalf("optimal start pivoted %d times", sol.Iterations)
	}
	if err := r.SetStartBasis([]int{Logical, 0}); err == nil {
		t.Fatal("start accepted after Solve")
	}
}

// TestIncrementalDualsColumnGeneration checks the maintained multipliers
// after every pivot of warm re-solves, where columns arrive between Solve
// calls, and across refactorizations on a program large enough to pass
// refactorEvery pivots.
func TestIncrementalDualsColumnGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(613))
	pivots := 0
	for trial := 0; trial < 20; trial++ {
		m := 40 + rng.Intn(30)
		ops := make([]Relation, m)
		rhs := make([]float64, m)
		for i := range ops {
			ops[i] = GE
			if i%4 == 0 {
				ops[i] = LE
			}
			rhs[i] = 1 + math.Round(10*rng.Float64())
		}
		r, err := NewRevised(ops, rhs)
		if err != nil {
			t.Fatal(err)
		}
		r.afterPivot = func(phase1 bool) { checkDuals(t, r, phase1) }
		for i := 0; i < m; i++ { // one covering column per row keeps it feasible
			if ops[i] == GE {
				_, _ = r.AddColumn(2+rng.Float64(), []int32{int32(i)}, []float64{1})
			}
		}
		for round := 0; round < 6; round++ {
			for c := 0; c < 30; c++ {
				var idx []int32
				var val []float64
				for i := 0; i < m; i++ {
					if rng.Float64() < 0.2 {
						idx = append(idx, int32(i))
						val = append(val, 0.5+math.Round(10*rng.Float64())/10)
					}
				}
				_, _ = r.AddColumn(0.5+rng.Float64(), idx, val)
			}
			sol, err := r.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != Optimal {
				t.Fatalf("trial %d round %d: %v", trial, round, sol.Status)
			}
		}
		pivots += r.Iterations()
	}
	if pivots < 2*refactorEvery {
		t.Fatalf("only %d pivots; the refactorization path went unchecked", pivots)
	}
}

// FuzzRevisedStartBasis: for a random program and a start drawn from the
// fuzz bytes (mode 0: arbitrary entries, possibly out of range; 1: the
// no-start optimum's basis; 2: a feasible basis from mid phase 2), an
// installed start reaches the no-start status and objective with no
// phase-1 pivots, a dropped one gives the no-start result bit for bit, and
// an out-of-range one is an error.
func FuzzRevisedStartBasis(f *testing.F) {
	f.Add(int64(1), byte(0), []byte{0, 1, 2, 3, 4})
	f.Add(int64(7), byte(1), []byte{})
	f.Add(int64(11), byte(2), []byte{})
	f.Add(int64(23), byte(0), []byte{3, 3, 3, 3, 3})
	f.Add(int64(42), byte(0), []byte{255, 0, 9})
	f.Fuzz(func(t *testing.T, seed int64, mode byte, pick []byte) {
		p := randomProblem(rand.New(rand.NewSource(seed)), seed%2 == 0)
		m := len(p.Constraints)
		base := solveStart(t, p, nil)
		var start []int
		switch mode % 3 {
		case 0:
			start = make([]int, m)
			for i := range start {
				b := 0
				if i < len(pick) {
					b = int(pick[i])
				}
				switch {
				case b%3 == 0:
					start[i] = Logical
				case b == 255:
					start[i] = p.NumVars // out of range
				default:
					start[i] = (b / 3) % p.NumVars
				}
			}
		case 1, 2:
			basis := base.r.basis
			if mode%3 == 2 {
				basis = base.midBase
			}
			if base.sol.Status != Optimal || basis == nil {
				return
			}
			var ok bool
			if start, ok = startFromBasis(base.r, basis); !ok {
				return
			}
		}
		if slices.Contains(start, p.NumVars) {
			r := loadRevised(t, p)
			if err := r.SetStartBasis(start); err == nil {
				t.Fatalf("out-of-range start %v accepted", start)
			}
			return
		}
		run := solveStart(t, p, start)
		if !startInstalled(t, p, start) {
			if mode%3 != 0 {
				t.Fatalf("feasible start %v dropped", start)
			}
			if !sameSolution(run.sol, base.sol) {
				t.Fatalf("dropped start %v gave %+v, no start %+v", start, run.sol, base.sol)
			}
			return
		}
		if run.phase1 != 0 || run.sol.Status != base.sol.Status {
			t.Fatalf("start %v: %d phase-1 pivots, status %v vs %v", start, run.phase1, run.sol.Status, base.sol.Status)
		}
		if base.sol.Status == Optimal {
			if d := math.Abs(run.sol.Objective - base.sol.Objective); d > 1e-9*math.Max(1, math.Abs(base.sol.Objective)) {
				t.Fatalf("start %v objective %.17g, no start %.17g", start, run.sol.Objective, base.sol.Objective)
			}
		}
	})
}
