package tree

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml/split"
)

// propDataset fabricates an adversarial training set for the split
// cross-check: normal columns, quantized (heavily tied) columns, an
// all-equal column, and a two-valued column, with labels carrying signal
// plus noise. Sizes straddle split.LeafSortCutoff so both the
// partitioned-column and the gather-and-sort regimes are exercised.
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

var propSizes = []int{
	2, 7, split.LeafSortCutoff - 1, split.LeafSortCutoff,
	split.LeafSortCutoff + 1, 300,
}

// fitWith fits cfg on the presorted engine, or on the reference scan of
// refsplit_test.go when reference is set.
func fitWith(t *testing.T, cfg Config, reference bool, x [][]float64, y []bool) *Tree {
	t.Helper()
	tr := New(cfg)
	if reference {
		tr.fitRef(x, y)
	} else if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTreePresortedMatchesReference cross-checks the presorted-column
// tree against the legacy per-node-sort oracle: same data, same config ⇒
// identical predictions and identical Gini-gain importances (bit for
// bit), across node sizes, MinLeaf settings, and feature subsampling.
func TestTreePresortedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range propSizes {
		for _, cfg := range []Config{
			{MaxDepth: 0, MinLeaf: 1},
			{MaxDepth: 8, MinLeaf: 1},
			{MaxDepth: 0, MinLeaf: 4},
			{MaxDepth: 6, MinLeaf: 2, MaxFeatures: 2, Seed: 9},
		} {
			x, y := propDataset(rng, n)
			a, b := fitWith(t, cfg, false, x, y), fitWith(t, cfg, true, x, y)
			if a.Depth() != b.Depth() {
				t.Fatalf("n=%d cfg=%+v: depth %d vs reference %d", n, cfg, a.Depth(), b.Depth())
			}
			impA, impB := make([]float64, 6), make([]float64, 6)
			a.FeatureImportance(impA)
			b.FeatureImportance(impB)
			for f := range impA {
				if impA[f] != impB[f] {
					t.Fatalf("n=%d cfg=%+v: importance[%d] %v vs reference %v", n, cfg, f, impA[f], impB[f])
				}
			}
			for i := 0; i < 200; i++ {
				probe := []float64{
					rng.NormFloat64(), math.Round(rng.NormFloat64() * 2), 7,
					float64(rng.Intn(2)), rng.NormFloat64(), math.Round(rng.NormFloat64()*4) / 4,
				}
				if a.Predict(probe) != b.Predict(probe) {
					t.Fatalf("n=%d cfg=%+v: prediction diverges on %v", n, cfg, probe)
				}
			}
		}
	}
}

// TestTreeDegenerateColumns pins the hard edges explicitly: an all-equal
// matrix must become a majority leaf in both modes, and a matrix whose
// only signal is a two-valued column must split on it identically.
func TestTreeDegenerateColumns(t *testing.T) {
	x := [][]float64{{7, 1}, {7, 1}, {7, 0}, {7, 0}, {7, 1}}
	y := []bool{true, true, false, false, true}
	for _, reference := range []bool{false, true} {
		tr := fitWith(t, Config{}, reference, x, y)
		if tr.Depth() != 1 {
			t.Fatalf("reference=%v: depth %d, want 1 (split on the informative column)", reference, tr.Depth())
		}
		if !tr.Predict([]float64{7, 1}) || tr.Predict([]float64{7, 0}) {
			t.Fatalf("reference=%v: wrong predictions", reference)
		}
	}
	// Fully constant matrix: majority leaf.
	xc := [][]float64{{3}, {3}, {3}}
	yc := []bool{true, false, true}
	for _, reference := range []bool{false, true} {
		tr := fitWith(t, Config{}, reference, xc, yc)
		if tr.Depth() != 0 || !tr.Predict([]float64{3}) {
			t.Fatalf("reference=%v: constant matrix not a majority leaf", reference)
		}
	}
}
