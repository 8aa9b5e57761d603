package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestForEachRunsEveryIndexOnce: each index runs exactly once for every
// worker count, including workers above n and non-positive workers.
func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, w := range []int{-1, 0, 1, 2, 8, 200} {
			hits := make([]atomic.Int32, n)
			if err := ForEach(n, w, func(i int) error {
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, w, i, h)
				}
			}
		}
	}
}

// TestForEachMinIndexError: with several failing indices the lowest one's
// error is returned for every worker count, and the indices after a
// failure still run.
func TestForEachMinIndexError(t *testing.T) {
	const n = 64
	fail := map[int]bool{5: true, 17: true, 40: true}
	for _, w := range []int{1, 2, 3, 8, 64} {
		var ran atomic.Int32
		err := ForEach(n, w, func(i int) error {
			ran.Add(1)
			if fail[i] {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 5" {
			t.Fatalf("workers=%d: err = %v, want index 5", w, err)
		}
		if ran.Load() != n {
			t.Fatalf("workers=%d: %d of %d indices ran", w, ran.Load(), n)
		}
	}
	sentinel := errors.New("boom")
	if err := ForEach(3, 2, func(i int) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the sentinel unwrapped", err)
	}
}
