package tree

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml/split"
)

// TestCountsViewMatchesMaterialized is the randomized equivalence check
// for the split engine's counts views and lazily derived columns: a tree
// grown on a view weighting each row by a random multiplicity (0 drops
// it) must equal, bit for bit in predictions and Gini-gain importances,
// the tree tree.Fit grows on the materialized rows — each row repeated by
// its count, in shuffled order. propDataset brings heavy ties, a constant
// column and columns whose level counts straddle node sizes; the sweep
// covers MinLeaf, depth, the per-split feature count (1 often samples the
// constant column and widens to all features), and sizes whose nodes sit
// on both sides of split.LeafSortCutoff, with and without a NaN column.
func TestCountsViewMatchesMaterialized(t *testing.T) {
	const d = propFeatures
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{12, split.LeafSortCutoff / 2, split.LeafSortCutoff + 7, 400} {
			for _, nan := range []bool{false, true} {
				x, y := propDataset(rng, n, nan)
				counts := make([]int32, n)
				var xm [][]float64
				var ym []bool
				for id := range x {
					counts[id] = int32(rng.Intn(4)) // 0..3, as in a bootstrap
					for c := int32(0); c < counts[id]; c++ {
						xm = append(xm, x[id])
						ym = append(ym, y[id])
					}
				}
				if len(xm) == 0 {
					continue
				}
				rng.Shuffle(len(xm), func(i, j int) {
					xm[i], xm[j] = xm[j], xm[i]
					ym[i], ym[j] = ym[j], ym[i]
				})
				presort := split.NewPresort(x, 1)
				for _, minLeaf := range []int{1, 3, 8} {
					for _, maxDepth := range []int{2, 0} {
						for _, maxFeatures := range []int{1, 3, d} { // 3 = ⌊√d⌋
							cfg := Config{
								MaxDepth: maxDepth, MinLeaf: minLeaf,
								MaxFeatures: maxFeatures, Seed: seed * 7,
							}
							name := fmt.Sprintf("seed=%d n=%d nan=%v cfg=%+v", seed, n, nan, cfg)
							a := New(cfg)
							if err := a.FitEngine(presort.View(counts, nil), y); err != nil {
								t.Fatal(err)
							}
							b := New(cfg)
							if err := b.Fit(xm, ym); err != nil {
								t.Fatal(err)
							}
							sameTree(t, name, a, b, x, rng)
						}
					}
				}
			}
		}
	}
}

// sameTree compares a fitted tree with its oracle's bit for bit: depth,
// importances, and predictions on the training rows and random probes.
func sameTree(t *testing.T, name string, a, b *Tree, x [][]float64, rng *rand.Rand) {
	t.Helper()
	if a.Depth() != b.Depth() {
		t.Fatalf("%s: depth %d, oracle %d", name, a.Depth(), b.Depth())
	}
	d := len(x[0])
	impA, impB := make([]float64, d), make([]float64, d)
	a.FeatureImportance(impA)
	b.FeatureImportance(impB)
	for f := range impA {
		if impA[f] != impB[f] {
			t.Fatalf("%s: importance[%d] %v, oracle %v", name, f, impA[f], impB[f])
		}
	}
	probes, _ := propDataset(rng, 50, true)
	for _, p := range append(probes, x...) {
		if a.Predict(p) != b.Predict(p) {
			t.Fatalf("%s: prediction diverges on %v", name, p)
		}
	}
}
