package boost

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml/split"
)

// circleData is a nonlinear task with first-order signal on single splits:
// points inside the unit circle are positive. (Pure XOR is pathological for
// greedy first-order boosting — every single split has zero gradient gain —
// so it is deliberately not used here.)
func circleData(n int, seed int64) ([][]float64, []bool) {
	rng := rand.New(rand.NewSource(seed))
	var x [][]float64
	var y []bool
	for i := 0; i < n; i++ {
		a := rng.Float64()*3 - 1.5
		b := rng.Float64()*3 - 1.5
		x = append(x, []float64{a, b})
		y = append(y, a*a+b*b < 1)
	}
	return x, y
}

// xorData remains for the stump-progress test, which only needs a hard task.
func xorData(n int, seed int64) ([][]float64, []bool) {
	rng := rand.New(rand.NewSource(seed))
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

func TestBoostFitsNonlinearBoundary(t *testing.T) {
	x, y := circleData(800, 1)
	bst := New(Config{Rounds: 120, MaxDepth: 3, Seed: 1})
	if err := bst.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	tx, ty := circleData(400, 2)
	correct := 0
	for i := range tx {
		if bst.Predict(tx[i]) == ty[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(tx)); acc < 0.9 {
		t.Fatalf("circle test accuracy %v", acc)
	}
}

func TestBoostProbaCalibration(t *testing.T) {
	x, y := circleData(800, 3)
	bst := New(Config{Rounds: 100, MaxDepth: 3, Seed: 1})
	if err := bst.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// Deep inside the circle, probability should be decisive; everywhere
	// it must stay within [0, 1].
	deep := bst.PredictProba([]float64{0, 0})
	if deep < 0.8 {
		t.Fatalf("circle-center proba %v, want > 0.8", deep)
	}
	for _, p := range [][]float64{{1.4, 1.4}, {-1.4, 0}, {0.7, 0}} {
		proba := bst.PredictProba(p)
		if proba < 0 || proba > 1 {
			t.Fatalf("proba %v out of bounds", proba)
		}
	}
}

func TestBoostPriorOnly(t *testing.T) {
	// All-positive labels: the prior should dominate and predict true
	// everywhere.
	x := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}}
	y := []bool{true, true, true, true, true, true}
	bst := New(Config{Rounds: 5, Seed: 1})
	if err := bst.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if !bst.Predict([]float64{10}) {
		t.Fatal("all-positive booster predicted negative")
	}
}

func TestBoostMoreRoundsImproveTrainingFit(t *testing.T) {
	x, y := xorData(600, 4)
	trainAcc := func(rounds int) float64 {
		bst := New(Config{Rounds: rounds, MaxDepth: 1, LearningRate: 0.1, Seed: 1})
		if err := bst.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		correct := 0
		for i := range x {
			if bst.Predict(x[i]) == y[i] {
				correct++
			}
		}
		return float64(correct) / float64(len(x))
	}
	few, many := trainAcc(1), trainAcc(200)
	if many <= few {
		t.Fatalf("200 stump rounds (%v) no better than 1 (%v)", many, few)
	}
}

func TestBoostSubsampling(t *testing.T) {
	x, y := circleData(600, 5)
	bst := New(Config{Rounds: 120, MaxDepth: 3, Subsample: 0.7, Seed: 1})
	if err := bst.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range x {
		if bst.Predict(x[i]) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(x)); acc < 0.85 {
		t.Fatalf("subsampled training accuracy %v", acc)
	}
}

func TestBoostDeterministicForSeed(t *testing.T) {
	x, y := circleData(300, 6)
	fit := func() *Boost {
		bst := New(Config{Rounds: 30, Subsample: 0.8, Seed: 11})
		if err := bst.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		return bst
	}
	a, b := fit(), fit()
	probe, _ := circleData(50, 7)
	for _, p := range probe {
		if math.Abs(a.PredictProba(p)-b.PredictProba(p)) > 1e-12 {
			t.Fatal("same-seed boosters disagree")
		}
	}
}

func TestBoostDefaults(t *testing.T) {
	bst := New(Config{})
	if bst.cfg.Rounds != 100 || bst.cfg.MaxDepth != 3 ||
		bst.cfg.LearningRate != 0.2 || bst.cfg.Subsample != 1 {
		t.Fatalf("defaults = %+v", bst.cfg)
	}
}

func TestBoostEmptyFitErrors(t *testing.T) {
	bst := New(Config{})
	if err := bst.Fit(nil, nil); err == nil {
		t.Fatal("empty fit accepted")
	}
}

// TestRegTreeMinLeafGuardInScan verifies the MinLeaf guard sits inside
// the gradient scan: when the best unconstrained split would isolate one
// outlier gradient, the tree must take the best admissible split instead
// of giving up on splitting (the pre-guard behavior collapsed to a leaf).
func TestRegTreeMinLeafGuardInScan(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}, {4}}
	grad := []float64{10, -1, -1, -1, -1}
	hess := []float64{1, 1, 1, 1, 1}

	rt := &regTree{maxDepth: 3, minLeaf: 2}
	e := split.NewPresort(x, 1).View(nil, nil)
	rt.fitEngine(e, grad, hess)
	if rt.root == nil || rt.root.leaf {
		t.Fatal("guarded scan collapsed to a leaf despite an admissible split")
	}
	if rt.root.threshold != 1.5 {
		t.Fatalf("root threshold %v, want 1.5 (best admissible)", rt.root.threshold)
	}

	ref := &regTree{maxDepth: 3, minLeaf: 2}
	ref.fitRef(x, grad, hess, []int{0, 1, 2, 3, 4})
	if ref.root.leaf || ref.root.threshold != rt.root.threshold {
		t.Fatalf("reference disagrees: leaf=%v thr=%v", ref.root.leaf, ref.root.threshold)
	}
}

func TestRegTreePredictEmpty(t *testing.T) {
	var rt regTree
	if got := rt.predict([]float64{1}); got != 0 {
		t.Fatalf("empty regression tree predicts %v, want 0", got)
	}
}

func TestSigmoidBounds(t *testing.T) {
	for _, z := range []float64{-100, -1, 0, 1, 100} {
		s := sigmoid(z)
		if s < 0 || s > 1 {
			t.Fatalf("sigmoid(%v) = %v", z, s)
		}
	}
	if sigmoid(0) != 0.5 {
		t.Fatal("sigmoid(0) != 0.5")
	}
}
