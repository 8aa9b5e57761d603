package experiments

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// withParallelism runs f with Parallelism set to p, restoring it after.
func withParallelism(t *testing.T, p int, f func()) {
	t.Helper()
	old := Parallelism
	Parallelism = p
	defer func() { Parallelism = old }()
	f()
}

// TestRunGridDeterministic: a 7x5 grid returns the same per-trial results
// (trial identity, seed and first RNG draw) at Parallelism 1, 2 and 8, and
// when trials fail it returns the lowest-index error at every width.
func TestRunGridDeterministic(t *testing.T) {
	type res struct {
		t    Trial
		draw int64
	}
	const rows, reps, base = 7, 5, 0x5EED
	run := func(fail map[int]bool) ([][]res, error) {
		return RunGrid(rows, reps, base, func(tr Trial, rng *rand.Rand) (res, error) {
			if fail[tr.Index] {
				return res{}, fmt.Errorf("trial %d failed", tr.Index)
			}
			return res{tr, rng.Int63()}, nil
		})
	}

	var want [][]res
	withParallelism(t, 1, func() {
		var err error
		if want, err = run(nil); err != nil {
			t.Fatal(err)
		}
	})
	if len(want) != rows {
		t.Fatalf("%d rows, want %d", len(want), rows)
	}
	for r, row := range want {
		if len(row) != reps {
			t.Fatalf("row %d has %d reps, want %d", r, len(row), reps)
		}
		for rep, got := range row {
			i := r*reps + rep
			if got.t != (Trial{Row: r, Rep: rep, Index: i, Seed: base ^ int64(i)}) {
				t.Fatalf("slot (%d,%d) holds %+v", r, rep, got.t)
			}
			if d := rand.New(rand.NewSource(base ^ int64(i))).Int63(); got.draw != d {
				t.Fatalf("trial %d drew %d, want %d from its own seed", i, got.draw, d)
			}
		}
	}

	fail := map[int]bool{3: true, 4: true, 17: true, 34: true}
	for _, p := range []int{1, 2, 8} {
		withParallelism(t, p, func() {
			got, err := run(nil)
			if err != nil {
				t.Fatalf("parallelism %d: %v", p, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parallelism %d: results differ from the serial run", p)
			}
			got, err = run(fail)
			if err == nil || err.Error() != "trial 3 failed" || got != nil {
				t.Fatalf("parallelism %d: got %v, %v; want only the trial 3 error", p, got, err)
			}
		})
	}
}
