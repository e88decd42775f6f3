package tree

import (
	"math/rand"
	"testing"
)

// xorData is a non-linearly-separable pattern a depth-2 tree solves.
func xorData(n int, rng *rand.Rand) ([][]float64, []bool) {
	var x [][]float64
	var y []bool
	for i := 0; i < n; i++ {
		a := rng.Float64()
		b := rng.Float64()
		x = append(x, []float64{a, b})
		y = append(y, (a > 0.5) != (b > 0.5))
	}
	return x, y
}

func TestTreeFitsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := xorData(600, rng)
	// Greedy Gini splits need several levels to carve uniform XOR
	// quadrants; depth 12 is ample.
	tr := New(Config{MaxDepth: 12})
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range x {
		if tr.Predict(x[i]) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(x)); acc < 0.95 {
		t.Fatalf("training accuracy %v on XOR", acc)
	}
}

func TestTreeGeneralizesXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := xorData(600, rng)
	tr := New(Config{MaxDepth: 12, MinLeaf: 5})
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	tx, ty := xorData(300, rng)
	correct := 0
	for i := range tx {
		if tr.Predict(tx[i]) == ty[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(tx)); acc < 0.9 {
		t.Fatalf("test accuracy %v on XOR", acc)
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := xorData(500, rng)
	tr := New(Config{MaxDepth: 2})
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if d := tr.Depth(); d > 2 {
		t.Fatalf("tree depth %d exceeds MaxDepth 2", d)
	}
}

func TestTreePureNodeIsLeaf(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []bool{true, true, true}
	tr := New(Config{})
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() != 0 {
		t.Fatalf("pure data grew depth %d", tr.Depth())
	}
	if !tr.Predict([]float64{99}) {
		t.Fatal("pure-positive tree predicted negative")
	}
}

func TestTreeEmptyFitErrors(t *testing.T) {
	tr := New(Config{})
	if err := tr.Fit(nil, nil); err == nil {
		t.Fatal("empty fit accepted")
	}
	if err := tr.Fit([][]float64{{1}}, []bool{true, false}); err == nil {
		t.Fatal("mismatched fit accepted")
	}
}

func TestTreePredictBeforeFit(t *testing.T) {
	tr := New(Config{})
	if tr.Predict([]float64{1}) {
		t.Fatal("unfitted tree predicted positive")
	}
}

func TestTreeDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := xorData(300, rng)
	fit := func() *Tree {
		tr := New(Config{MaxDepth: 6, MaxFeatures: 1, Seed: 7})
		if err := tr.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := fit(), fit()
	probe := [][]float64{{0.1, 0.9}, {0.9, 0.1}, {0.2, 0.2}, {0.8, 0.8}}
	for _, p := range probe {
		if a.Predict(p) != b.Predict(p) {
			t.Fatal("same-seed trees disagree")
		}
	}
}

func TestTreeIdenticalFeatureValues(t *testing.T) {
	// All feature values identical: no split possible, majority leaf.
	x := [][]float64{{5}, {5}, {5}, {5}}
	y := []bool{true, true, true, false}
	tr := New(Config{})
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if !tr.Predict([]float64{5}) {
		t.Fatal("majority leaf wrong")
	}
}

// TestTreeMinLeafGuardInScan verifies the guard lives inside the split
// scan: when the unconstrained best split would isolate a single sample,
// the tree must take the best admissible split instead of collapsing to
// a leaf (the pre-guard behavior).
func TestTreeMinLeafGuardInScan(t *testing.T) {
	// One positive at x=0; the unconstrained best split (thr 0.5) makes a
	// pure single-sample leaf, which MinLeaf=2 forbids. The guarded scan
	// must fall back to thr 1.5, whose 2-sample left leaf votes positive.
	x := [][]float64{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}}
	y := []bool{true, false, false, false, false, false, false, false, false, false}
	for _, reference := range []bool{false, true} {
		tr := fitWith(t, Config{MinLeaf: 2}, reference, x, y)
		if tr.Depth() != 1 {
			t.Fatalf("reference=%v: depth %d, want 1 admissible split", reference, tr.Depth())
		}
		if !tr.Predict([]float64{0}) {
			t.Fatalf("reference=%v: guarded split lost the positive leaf", reference)
		}
		if tr.Predict([]float64{9}) {
			t.Fatalf("reference=%v: right leaf mislabeled", reference)
		}
	}
}

func TestTreeMinLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := xorData(200, rng)
	tr := New(Config{MinLeaf: 100})
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// With MinLeaf at half the data, the tree can split at most once.
	if tr.Depth() > 1 {
		t.Fatalf("depth %d with MinLeaf=100 on 200 samples", tr.Depth())
	}
}
