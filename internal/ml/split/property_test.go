package split_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml/tree"
)

// propDataset fabricates an adversarial training set: normal columns,
// quantized (heavily tied) columns, an all-equal column, and a two-valued
// column, with labels carrying signal plus noise. The tree and boost
// packages cross-check the engine against their reference scans on the
// same generator (their property_test.go).
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

// TestBinnedTreeStillLearns sanity-checks the histogram mode: a binned
// tree must remain deterministic and close to the exact tree on a task
// with real signal, despite the capped threshold set.
func TestBinnedTreeStillLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x, y := propDataset(rng, 600)
	acc := func(cfg tree.Config) float64 {
		tr := tree.New(cfg)
		if err := tr.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		correct := 0
		for i := range x {
			if tr.Predict(x[i]) == y[i] {
				correct++
			}
		}
		return float64(correct) / float64(len(x))
	}
	exact := acc(tree.Config{MaxDepth: 8})
	binned := acc(tree.Config{MaxDepth: 8, Bins: 16})
	binned2 := acc(tree.Config{MaxDepth: 8, Bins: 16})
	if binned != binned2 {
		t.Fatal("binned mode nondeterministic")
	}
	if binned < exact-0.08 {
		t.Fatalf("binned training accuracy %v too far below exact %v", binned, exact)
	}
}
