// Package ml provides the shared machine-learning plumbing for the
// pseudo-honeypot detector (paper §IV-C): datasets, stratified K-fold
// cross-validation, evaluation metrics (accuracy, precision, recall, false
// positive rate), and feature standardization. The classifier families the
// paper compares live in the subpackages tree, forest, knn, svm, and boost.
package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
)

// Classifier is a binary classifier over dense feature vectors. The
// positive class is "spam".
type Classifier interface {
	// Fit trains on the given samples. Implementations must copy any
	// state they keep; callers may reuse the slices.
	Fit(x [][]float64, y []bool) error
	// Predict classifies one sample.
	Predict(x []float64) bool
}

// Dataset is a labeled sample collection.
type Dataset struct {
	X [][]float64
	Y []bool
}

// NewDataset creates a dataset, validating that lengths match.
func NewDataset(x [][]float64, y []bool) (*Dataset, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("ml: %d samples but %d labels", len(x), len(y))
	}
	return &Dataset{X: x, Y: y}, nil
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Subset returns the dataset restricted to the given indices (views, not
// copies, of the sample vectors).
func (d *Dataset) Subset(idx []int) *Dataset {
	sub := &Dataset{
		X: make([][]float64, len(idx)),
		Y: make([]bool, len(idx)),
	}
	for i, j := range idx {
		sub.X[i] = d.X[j]
		sub.Y[i] = d.Y[j]
	}
	return sub
}

// Metrics are the classification quality measures of the paper's Table IV.
type Metrics struct {
	Accuracy  float64
	Precision float64
	Recall    float64
	// FPR is the false positive rate FP/(FP+TN).
	FPR float64
	// F1 is the harmonic mean of precision and recall.
	F1 float64

	TP, FP, TN, FN int
}

// Evaluate scores predictions against truth.
func Evaluate(pred, truth []bool) Metrics {
	var m Metrics
	for i := range pred {
		switch {
		case pred[i] && truth[i]:
			m.TP++
		case pred[i] && !truth[i]:
			m.FP++
		case !pred[i] && truth[i]:
			m.FN++
		default:
			m.TN++
		}
	}
	total := m.TP + m.FP + m.TN + m.FN
	if total > 0 {
		m.Accuracy = float64(m.TP+m.TN) / float64(total)
	}
	if m.TP+m.FP > 0 {
		m.Precision = float64(m.TP) / float64(m.TP+m.FP)
	}
	if m.TP+m.FN > 0 {
		m.Recall = float64(m.TP) / float64(m.TP+m.FN)
	}
	if m.FP+m.TN > 0 {
		m.FPR = float64(m.FP) / float64(m.FP+m.TN)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// StratifiedFolds partitions indices into k folds preserving the class
// ratio, shuffled by rng.
func StratifiedFolds(y []bool, k int, rng *rand.Rand) ([][]int, error) {
	if k < 2 {
		return nil, errors.New("ml: need at least 2 folds")
	}
	if len(y) < k {
		return nil, fmt.Errorf("ml: %d samples cannot fill %d folds", len(y), k)
	}
	var pos, neg []int
	for i, v := range y {
		if v {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	folds := make([][]int, k)
	for i, idx := range pos {
		folds[i%k] = append(folds[i%k], idx)
	}
	for i, idx := range neg {
		folds[i%k] = append(folds[i%k], idx)
	}
	return folds, nil
}

// CrossValidate runs k-fold cross-validation, training a fresh classifier
// from factory on each fold's complement and pooling the out-of-fold
// predictions into a single Metrics (micro-averaged, as the paper reports).
// Folds run concurrently on the process-default worker pool; see
// CrossValidateWorkers for the determinism contract.
func CrossValidate(d *Dataset, k int, factory func() Classifier, seed int64) (Metrics, error) {
	return CrossValidateWorkers(d, k, factory, seed, 0)
}

// CrossValidateWorkers is CrossValidate with an explicit fold-level worker
// count (0 resolves the process default). Every fold owns a disjoint
// train/test index split and a fresh classifier, so the pooled metrics are
// bit-identical at any worker count. factory must be safe to call
// concurrently and must return classifiers that do not share mutable
// state.
func CrossValidateWorkers(d *Dataset, k int, factory func() Classifier, seed int64, workers int) (Metrics, error) {
	folds, err := StratifiedFolds(d.Y, k, rand.New(rand.NewSource(seed)))
	if err != nil {
		return Metrics{}, err
	}
	// Precompute every fold's training indices in one pass over the
	// flattened fold list, instead of re-concatenating the k-1 other
	// folds inside the per-fold loop: fold fi trains on all[:off[fi]] +
	// all[off[fi+1]:].
	total := 0
	for _, fold := range folds {
		total += len(fold)
	}
	all := make([]int, 0, total)
	off := make([]int, len(folds)+1)
	for fi, fold := range folds {
		all = append(all, fold...)
		off[fi+1] = off[fi] + len(fold)
	}
	trainSets := make([][]int, len(folds))
	for fi := range folds {
		trainIdx := make([]int, 0, total-(off[fi+1]-off[fi]))
		trainIdx = append(trainIdx, all[:off[fi]]...)
		trainIdx = append(trainIdx, all[off[fi+1]:]...)
		trainSets[fi] = trainIdx
	}

	pred := make([]bool, d.Len())
	err = parallel.ForEachErr(len(folds), workers, func(fi int) error {
		train := d.Subset(trainSets[fi])
		clf := factory()
		if err := clf.Fit(train.X, train.Y); err != nil {
			return fmt.Errorf("fold %d: %w", fi, err)
		}
		// Folds hold disjoint index sets, so these writes never overlap.
		for _, idx := range folds[fi] {
			pred[idx] = clf.Predict(d.X[idx])
		}
		return nil
	})
	if err != nil {
		return Metrics{}, err
	}
	return Evaluate(pred, d.Y), nil
}

// Standardizer centers and scales features to zero mean and unit variance.
// Distance- and margin-based classifiers (kNN, SVM) depend on it.
type Standardizer struct {
	Mean, Std []float64
}

// FitStandardizer computes per-feature statistics.
func FitStandardizer(x [][]float64) *Standardizer {
	if len(x) == 0 {
		return &Standardizer{}
	}
	d := len(x[0])
	s := &Standardizer{
		Mean: make([]float64, d),
		Std:  make([]float64, d),
	}
	for _, row := range x {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	n := float64(len(x))
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range x {
		for j, v := range row {
			diff := v - s.Mean[j]
			s.Std[j] += diff * diff
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] < 1e-12 {
			s.Std[j] = 1
		}
	}
	return s
}

// Transform standardizes one vector into a new slice.
func (s *Standardizer) Transform(x []float64) []float64 {
	if len(s.Mean) == 0 {
		return append([]float64(nil), x...)
	}
	out := make([]float64, len(x))
	for j, v := range x {
		if j < len(s.Mean) {
			out[j] = (v - s.Mean[j]) / s.Std[j]
		} else {
			out[j] = v
		}
	}
	return out
}

// TransformAll standardizes a whole matrix.
func (s *Standardizer) TransformAll(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = s.Transform(row)
	}
	return out
}
