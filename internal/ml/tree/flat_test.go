package tree

import (
	"math/rand"
	"testing"
)

// TestFlatMatchesPointerPredict packs fitted trees of varying shapes into
// one shared Flat pool and checks every prediction is identical to the
// pointer walk.
func TestFlatMatchesPointerPredict(t *testing.T) {
	var flat Flat
	type packed struct {
		tr   *Tree
		root int32
	}
	var trees []packed
	for _, seed := range []int64{1, 2, 3} {
		for _, cfg := range []Config{
			{},
			{MaxDepth: 2},
			{MaxDepth: 8, MinLeaf: 3},
			{MaxFeatures: 2, Seed: seed},
		} {
			rng := rand.New(rand.NewSource(seed))
			n := 300
			x := make([][]float64, n)
			y := make([]bool, n)
			for i := range x {
				x[i] = []float64{rng.NormFloat64(), rng.NormFloat64(),
					rng.NormFloat64(), float64(rng.Intn(3))}
				y[i] = x[i][0]+x[i][1] > 0.2
				if rng.Float64() < 0.1 {
					y[i] = !y[i]
				}
			}
			tr := New(cfg)
			if err := tr.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			trees = append(trees, packed{tr, tr.AppendFlat(&flat)})
		}
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(),
			rng.NormFloat64(), float64(rng.Intn(3))}
		for pi, p := range trees {
			if got, want := flat.Predict(p.root, x), p.tr.Predict(x); got != want {
				t.Fatalf("tree %d trial %d: flat=%v pointer=%v (x=%v)", pi, trial, got, want, x)
			}
		}
	}
}

// TestFlatUntrainedTree pins the degenerate contract: an untrained tree
// packs to root -1 and predicts false, like Tree.Predict.
func TestFlatUntrainedTree(t *testing.T) {
	var flat Flat
	tr := New(Config{})
	root := tr.AppendFlat(&flat)
	if root != -1 {
		t.Fatalf("untrained tree root = %d, want -1", root)
	}
	if flat.Len() != 0 {
		t.Fatalf("untrained tree packed %d nodes", flat.Len())
	}
	if flat.Predict(root, []float64{1}) != false {
		t.Fatal("untrained flat predict != false")
	}
}
