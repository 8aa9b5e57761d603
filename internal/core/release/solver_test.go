package release

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"strippack/internal/geom"
)

// mixedInstances draws n instances alternating FPGA-style and continuous
// widths, with K varying so that width sets both repeat and differ.
func mixedInstances(rng *rand.Rand, n int) []*geom.Instance {
	ins := make([]*geom.Instance, n)
	for i := range ins {
		K := 2 + i%3
		if i%2 == 0 {
			ins[i] = fpgaInstance(rng, 5+rng.Intn(8), K, 2*rng.Float64())
		} else {
			ins[i] = contInstance(rng, 4+rng.Intn(6), K, 1.5*rng.Float64())
		}
	}
	return ins
}

// solveCGHeights returns SolveCG's height for every instance.
func solveCGHeights(t *testing.T, ins []*geom.Instance) []float64 {
	t.Helper()
	want := make([]float64, len(ins))
	for i, in := range ins {
		fs, _, err := SolveCG(in, CGOptions{})
		if err != nil {
			t.Fatalf("instance %d: SolveCG: %v", i, err)
		}
		want[i] = fs.Height
	}
	return want
}

// TestSolverIdenticalToSolveCG: every Solve, including repeats of width
// sets and of whole instances through one Solver, reproduces SolveCG byte
// for byte — same configurations, same solution matrix, same height,
// same stats.
func TestSolverIdenticalToSolveCG(t *testing.T) {
	rng := rand.New(rand.NewSource(461))
	ins := mixedInstances(rng, 10)
	s := NewSolver(CGOptions{})
	for pass := 0; pass < 2; pass++ {
		for i, in := range ins {
			want, wantSt, err := SolveCG(in, CGOptions{})
			if err != nil {
				t.Fatalf("instance %d: SolveCG: %v", i, err)
			}
			got, gotSt, err := s.Solve(in)
			if err != nil {
				t.Fatalf("instance %d: Solver.Solve: %v", i, err)
			}
			if !reflect.DeepEqual(want.Model.Configs, got.Model.Configs) ||
				!reflect.DeepEqual(want.X, got.X) ||
				want.Height != got.Height ||
				!reflect.DeepEqual(wantSt, gotSt) {
				t.Fatalf("pass %d instance %d: Solver diverges from SolveCG: %+v vs %+v",
					pass, i, wantSt, gotSt)
			}
		}
	}
	if st := s.Stats(); st.Solves != 2*len(ins) || st.PoolHits != 0 {
		t.Fatalf("stats %+v, want %d solves and no pool hits", st, 2*len(ins))
	}
}

// TestSolverValidation mirrors TestSolveCGValidation through the Solver
// front-end.
func TestSolverValidation(t *testing.T) {
	s := NewSolver(CGOptions{})
	if _, _, err := s.Solve(geom.NewInstance(1, nil)); err == nil {
		t.Fatal("empty instance accepted")
	}
	wide := geom.NewInstance(1, []geom.Rect{{W: 2, H: 1}})
	if _, _, err := s.Solve(wide); err == nil {
		t.Fatal("over-wide rectangle accepted")
	}
	if st := s.Stats(); st.Solves != 0 {
		t.Fatalf("failed solves counted: %+v", st)
	}
}

// hammer runs solve over every instance three times from each of eight
// goroutines — the RunGrid shape `make race` checks — and requires every
// height to equal want bit for bit.
func hammer(t *testing.T, ins []*geom.Instance, want []float64, solve func(*geom.Instance) (float64, error)) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for k := range ins {
					i := (k + g) % len(ins) // goroutines start on different instances
					h, err := solve(ins[i])
					if err != nil {
						errs[g] = fmt.Errorf("instance %d: %v", i, err)
						return
					}
					if h != want[i] {
						errs[g] = fmt.Errorf("instance %d: height %v, SolveCG %v", i, h, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestSolverConcurrent hammers one Solver from many goroutines over a
// mixed instance set; every height is SolveCG's bit for bit.
func TestSolverConcurrent(t *testing.T) {
	ins := mixedInstances(rand.New(rand.NewSource(487)), 6)
	want := solveCGHeights(t, ins)
	s := NewSolver(CGOptions{Workers: 1})
	hammer(t, ins, want, func(in *geom.Instance) (float64, error) {
		fs, _, err := s.Solve(in)
		if err != nil {
			return 0, err
		}
		return fs.Height, nil
	})
	if st := s.Stats(); st.Solves != 8*3*len(ins) {
		t.Fatalf("stats %+v, want %d solves", st, 8*3*len(ins))
	}
}

// TestBoundCacheConcurrent: goroutines racing to miss on the same
// instances all get SolveCG's height bit for bit, whichever of them
// solved it and whichever replayed it.
func TestBoundCacheConcurrent(t *testing.T) {
	ins := mixedInstances(rand.New(rand.NewSource(491)), 6)
	want := solveCGHeights(t, ins)
	c := NewBoundCache(CGOptions{Workers: 1})
	hammer(t, ins, want, c.FractionalLowerBound)
	if hits, misses := c.Stats(); hits+misses != 8*3*len(ins) || misses < len(ins) {
		t.Fatalf("hits=%d misses=%d over %d requests and %d instances",
			hits, misses, 8*3*len(ins), len(ins))
	}
}

// TestBoundCacheCachesErrors: a failing instance pays for its diagnosis
// once; repeats replay the memoized error as hits.
func TestBoundCacheCachesErrors(t *testing.T) {
	c := NewBoundCache(CGOptions{})
	bad := geom.NewInstance(1, []geom.Rect{{W: 2, H: 1}})
	_, first := c.FractionalLowerBound(bad)
	if first == nil {
		t.Fatal("over-wide rectangle accepted")
	}
	for i := 0; i < 2; i++ {
		_, err := c.FractionalLowerBound(bad)
		if err == nil || err.Error() != first.Error() {
			t.Fatalf("replay %d: got %v, want %v", i, err, first)
		}
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/1", hits, misses)
	}
}
