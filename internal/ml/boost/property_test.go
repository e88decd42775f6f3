package boost

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml/split"
)

// propDataset fabricates an adversarial training set for the split
// cross-check: normal columns, quantized (heavily tied) columns, an
// all-equal column, and a two-valued column, with labels carrying signal
// plus noise.
func propDataset(rng *rand.Rand, n int) ([][]float64, []bool) {
	x := make([][]float64, n)
	y := make([]bool, n)
	for i := range x {
		row := make([]float64, 6)
		row[0] = rng.NormFloat64()
		row[1] = math.Round(rng.NormFloat64() * 2) // quantized: heavy ties
		row[2] = 7                                 // single distinct value
		row[3] = float64(rng.Intn(2))              // two distinct values
		row[4] = rng.NormFloat64()
		row[5] = math.Round(rng.NormFloat64()*4) / 4
		x[i] = row
		y[i] = row[0]+row[1]/2+row[3] > 0.5
		if rng.Float64() < 0.1 {
			y[i] = !y[i]
		}
	}
	return x, y
}

// TestBoostPresortedMatchesReference cross-checks the engine-driven
// booster against the legacy oracle: probabilities must match bit for
// bit, which also pins the cumulative-gradient accumulation order. Sizes
// straddle split.LeafSortCutoff so both the partitioned-column and the
// gather-and-sort regimes are exercised.
func TestBoostPresortedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{
		7, split.LeafSortCutoff - 1, split.LeafSortCutoff,
		split.LeafSortCutoff + 1, 300,
	} {
		for _, cfg := range []Config{
			{Rounds: 20, MaxDepth: 3, MinLeaf: 1, Seed: 3},
			{Rounds: 20, MaxDepth: 4, MinLeaf: 5, Seed: 3},
			{Rounds: 15, MaxDepth: 3, MinLeaf: 2, Subsample: 0.7, Seed: 5},
		} {
			x, y := propDataset(rng, n)
			a, b := New(cfg), New(cfg)
			if err := a.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			b.fitRef(x, y)
			for i := 0; i < 100; i++ {
				probe := []float64{
					rng.NormFloat64(), math.Round(rng.NormFloat64() * 2), 7,
					float64(rng.Intn(2)), rng.NormFloat64(), math.Round(rng.NormFloat64()*4) / 4,
				}
				pa, pb := a.PredictProba(probe), b.PredictProba(probe)
				if pa != pb {
					t.Fatalf("n=%d cfg=%+v: proba %v vs reference %v on %v", n, cfg, pa, pb, probe)
				}
			}
		}
	}
}
