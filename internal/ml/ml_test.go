package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEvaluateConfusion(t *testing.T) {
	pred := []bool{true, true, false, false, true}
	truth := []bool{true, false, false, true, true}
	m := Evaluate(pred, truth)
	if m.TP != 2 || m.FP != 1 || m.TN != 1 || m.FN != 1 {
		t.Fatalf("confusion = %+v", m)
	}
	if m.Accuracy != 0.6 {
		t.Fatalf("accuracy = %v, want 0.6", m.Accuracy)
	}
	if math.Abs(m.Precision-2.0/3.0) > 1e-12 {
		t.Fatalf("precision = %v", m.Precision)
	}
	if math.Abs(m.Recall-2.0/3.0) > 1e-12 {
		t.Fatalf("recall = %v", m.Recall)
	}
	if m.FPR != 0.5 {
		t.Fatalf("FPR = %v, want 0.5", m.FPR)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	m := Evaluate(nil, nil)
	if m.Accuracy != 0 || m.Precision != 0 || m.Recall != 0 || m.FPR != 0 {
		t.Fatalf("empty metrics = %+v", m)
	}
}

func TestEvaluateAllCorrect(t *testing.T) {
	pred := []bool{true, false, true}
	m := Evaluate(pred, pred)
	if m.Accuracy != 1 || m.Precision != 1 || m.Recall != 1 || m.FPR != 0 || m.F1 != 1 {
		t.Fatalf("perfect metrics = %+v", m)
	}
}

func TestNewDatasetValidates(t *testing.T) {
	if _, err := NewDataset([][]float64{{1}}, []bool{true, false}); err == nil {
		t.Fatal("mismatched dataset accepted")
	}
	d, err := NewDataset([][]float64{{1}, {2}}, []bool{true, false})
	if err != nil || d.Len() != 2 || !d.Y[0] || d.Y[1] {
		t.Fatalf("dataset: %v %+v", err, d)
	}
}

func TestSubset(t *testing.T) {
	d, _ := NewDataset([][]float64{{1}, {2}, {3}}, []bool{true, false, true})
	s := d.Subset([]int{2, 0})
	if s.Len() != 2 || s.X[0][0] != 3 || !s.Y[1] {
		t.Fatalf("subset = %+v", s)
	}
}

func TestStratifiedFoldsPreserveRatio(t *testing.T) {
	y := make([]bool, 1000)
	for i := 0; i < 100; i++ {
		y[i] = true // 10% positive
	}
	folds, err := StratifiedFolds(y, 10, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, fold := range folds {
		pos := 0
		for _, idx := range fold {
			if seen[idx] {
				t.Fatal("index appears in two folds")
			}
			seen[idx] = true
			if y[idx] {
				pos++
			}
		}
		if pos != 10 {
			t.Fatalf("fold has %d positives, want 10", pos)
		}
	}
	if len(seen) != 1000 {
		t.Fatalf("folds cover %d samples, want 1000", len(seen))
	}
}

func TestStratifiedFoldsErrors(t *testing.T) {
	if _, err := StratifiedFolds([]bool{true}, 1, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := StratifiedFolds([]bool{true}, 5, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("more folds than samples accepted")
	}
}

// thresholdClassifier predicts by comparing feature 0 to a learned mean.
type thresholdClassifier struct{ cut float64 }

func (c *thresholdClassifier) Fit(x [][]float64, y []bool) error {
	var posSum, negSum float64
	var posN, negN int
	for i := range x {
		if y[i] {
			posSum += x[i][0]
			posN++
		} else {
			negSum += x[i][0]
			negN++
		}
	}
	c.cut = (posSum/float64(posN) + negSum/float64(negN)) / 2
	return nil
}

func (c *thresholdClassifier) Predict(x []float64) bool { return x[0] > c.cut }

func TestCrossValidateSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []bool
	for i := 0; i < 400; i++ {
		pos := i%2 == 0
		v := rng.NormFloat64()
		if pos {
			v += 6
		}
		x = append(x, []float64{v})
		y = append(y, pos)
	}
	d, _ := NewDataset(x, y)
	m, err := CrossValidate(d, 10, func() Classifier { return &thresholdClassifier{} }, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy < 0.98 {
		t.Fatalf("CV accuracy %v on separable data", m.Accuracy)
	}
}

func TestStandardizer(t *testing.T) {
	x := [][]float64{{1, 10}, {3, 30}, {5, 50}}
	s := FitStandardizer(x)
	if math.Abs(s.Mean[0]-3) > 1e-12 || math.Abs(s.Mean[1]-30) > 1e-12 {
		t.Fatalf("means = %v", s.Mean)
	}
	out := s.TransformAll(x)
	for j := 0; j < 2; j++ {
		var mean, varSum float64
		for i := range out {
			mean += out[i][j]
		}
		mean /= 3
		for i := range out {
			varSum += (out[i][j] - mean) * (out[i][j] - mean)
		}
		if math.Abs(mean) > 1e-9 || math.Abs(varSum/3-1) > 1e-9 {
			t.Fatalf("feature %d not standardized: mean=%v var=%v", j, mean, varSum/3)
		}
	}
}

func TestStandardizerConstantFeature(t *testing.T) {
	x := [][]float64{{7}, {7}, {7}}
	s := FitStandardizer(x)
	out := s.Transform([]float64{7})
	if out[0] != 0 {
		t.Fatalf("constant feature transforms to %v, want 0", out[0])
	}
}

func TestStandardizerEmpty(t *testing.T) {
	s := FitStandardizer(nil)
	out := s.Transform([]float64{1, 2})
	if len(out) != 2 || out[0] != 1 {
		t.Fatal("empty standardizer should pass through")
	}
}

// Property: Evaluate counts always sum to the number of samples and rates
// stay in [0, 1].
func TestEvaluateBoundsProperty(t *testing.T) {
	prop := func(pred, truth []bool) bool {
		n := len(pred)
		if len(truth) < n {
			n = len(truth)
		}
		m := Evaluate(pred[:n], truth[:n])
		if m.TP+m.FP+m.TN+m.FN != n {
			return false
		}
		for _, r := range []float64{m.Accuracy, m.Precision, m.Recall, m.FPR, m.F1} {
			if r < 0 || r > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
