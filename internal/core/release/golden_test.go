package release

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"strippack/internal/workload"
)

// packGoldenSum is the sha256 of every placement (x and y bit patterns, in
// rectangle order) that Pack produces over packGoldenCases. ToIntegral
// rounds whichever basic optimum the master's simplex lands on, so any
// change to Pack's LP path (start basis, pivot rule, dual arithmetic) can
// move packings while every height stays within its guarantee; this pins
// the path instead of the bound.
const packGoldenSum = "cdff838e74ee62213285933a8dd3f98812f140de7aa4d60b10b49905a116b20e"

// packGoldenCase is one seeded Pack run: n FPGA tasks on K columns with
// releases over [0, span], packed at accuracy eps.
type packGoldenCase struct {
	n, K int
	span float64
	eps  float64
	reps int
}

// packGoldenCases covers the solve benchmark's release family (n=40,
// K 4/5/6, span 3, ε=1) and E6/E8-shaped instances at finer accuracy.
var packGoldenCases = []packGoldenCase{
	{n: 40, K: 4, span: 3, eps: 1, reps: 32},
	{n: 40, K: 5, span: 3, eps: 1, reps: 32},
	{n: 40, K: 6, span: 3, eps: 1, reps: 32},
	{n: 12, K: 3, span: 2, eps: 0.5, reps: 8},
	{n: 12, K: 3, span: 2, eps: 0.3, reps: 8},
	{n: 40, K: 3, span: 10, eps: 0.5, reps: 4},
	{n: 80, K: 3, span: 20, eps: 0.3, reps: 4},
	{n: 120, K: 3, span: 30, eps: 0.5, reps: 4},
}

func TestPackGolden(t *testing.T) {
	h := sha256.New()
	var buf [16]byte
	for ci, c := range packGoldenCases {
		for rep := 0; rep < c.reps; rep++ {
			rng := rand.New(rand.NewSource(int64(9001 + 100*ci + rep)))
			in := workload.FPGA(rng, c.n, c.K, c.span)
			p, _, err := Pack(in, Options{Epsilon: c.eps, K: c.K})
			if err != nil {
				t.Fatalf("case %d rep %d: %v", ci, rep, err)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("case %d rep %d: %v", ci, rep, err)
			}
			for _, pos := range p.Pos {
				binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(pos.X))
				binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(pos.Y))
				h.Write(buf[:])
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != packGoldenSum {
		t.Fatalf("Pack placements sha256 = %s, want %s", got, packGoldenSum)
	}
}
