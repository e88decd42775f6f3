// Package boost implements gradient-boosted regression trees on logistic
// loss with Newton leaf values and shrinkage — the paper's EGB (extreme
// gradient boosting) comparator.
package boost

import (
	"errors"
	"math"
	"math/rand"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml/split"
)

// Config holds boosting hyperparameters.
type Config struct {
	// Rounds is the number of boosting iterations (default 100).
	Rounds int
	// MaxDepth bounds each regression tree (default 3).
	MaxDepth int
	// LearningRate is the shrinkage factor (default 0.2).
	LearningRate float64
	// MinLeaf is the minimum samples per regression leaf (default 5).
	MinLeaf int
	// Subsample is the stochastic row-sampling fraction (default 1).
	Subsample float64
	// Seed drives row subsampling.
	Seed int64
	// Bins enables histogram-binned split finding in every round's
	// regression tree (see tree.Config.Bins); non-positive keeps the
	// exact scan.
	Bins int
}

// Boost is a trained gradient-boosting classifier.
type Boost struct {
	cfg   Config
	base  float64
	trees []*regTree
}

// New creates an untrained booster.
func New(cfg Config) *Boost {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 100
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 3
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.2
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 5
	}
	if cfg.Subsample <= 0 || cfg.Subsample > 1 {
		cfg.Subsample = 1
	}
	return &Boost{cfg: cfg}
}

// Fit trains the ensemble: start from the log-odds prior, then repeatedly
// fit a regression tree to the logistic-loss gradients and take a Newton
// step per leaf.
func (b *Boost) Fit(x [][]float64, y []bool) error {
	if len(x) == 0 || len(x) != len(y) {
		return errors.New("boost: empty or mismatched training data")
	}
	// Sort the feature space once; each round's tree view (full or
	// subsampled, as 0/1 row counts) is derived from the pristine order
	// and the engine's buffers are recycled round to round. One presort
	// worker: boosters are fit inside cross-validation's fold fan-out.
	presort := split.NewPresort(x, 1)
	var eng *split.Engine
	var sampled []int32
	b.fitRounds(x, y, func(t *regTree, idx []int, grad, hess []float64) {
		var counts []int32 // nil: every row once
		if len(idx) < len(x) {
			if sampled == nil {
				sampled = make([]int32, len(x))
			}
			clear(sampled)
			for _, r := range idx {
				sampled[r] = 1
			}
			counts = sampled
		}
		eng = presort.View(counts, eng)
		if b.cfg.Bins > 1 {
			eng.SetBins(b.cfg.Bins)
		}
		t.fitEngine(eng, grad, hess)
	})
	return nil
}

// fitRounds runs the boosting loop over validated data, leaving how each
// round's tree is grown on the sampled rows idx to grow: Fit grows on the
// presorted engine, the test oracle on the reference scan.
func (b *Boost) fitRounds(x [][]float64, y []bool, grow func(t *regTree, idx []int, grad, hess []float64)) {
	n := len(x)
	pos := 0
	for _, v := range y {
		if v {
			pos++
		}
	}
	p := (float64(pos) + 1) / (float64(n) + 2) // Laplace-smoothed prior
	b.base = math.Log(p / (1 - p))

	f := make([]float64, n)
	for i := range f {
		f[i] = b.base
	}
	grad := make([]float64, n)
	hess := make([]float64, n)
	rng := rand.New(rand.NewSource(b.cfg.Seed))

	b.trees = b.trees[:0]
	for round := 0; round < b.cfg.Rounds; round++ {
		for i := range f {
			prob := sigmoid(f[i])
			target := 0.0
			if y[i] {
				target = 1
			}
			grad[i] = target - prob
			hess[i] = prob * (1 - prob)
		}
		t := &regTree{maxDepth: b.cfg.MaxDepth, minLeaf: b.cfg.MinLeaf}
		grow(t, b.sampleRows(n, rng), grad, hess)
		b.trees = append(b.trees, t)
		for i := range f {
			f[i] += b.cfg.LearningRate * t.predict(x[i])
		}
	}
}

func (b *Boost) sampleRows(n int, rng *rand.Rand) []int {
	idx := make([]int, 0, n)
	if b.cfg.Subsample >= 1 {
		for i := 0; i < n; i++ {
			idx = append(idx, i)
		}
		return idx
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < b.cfg.Subsample {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		idx = append(idx, rng.Intn(n))
	}
	return idx
}

// Predict classifies one sample.
func (b *Boost) Predict(x []float64) bool {
	return b.PredictProba(x) > 0.5
}

// PredictProba returns the spam probability of one sample.
func (b *Boost) PredictProba(x []float64) float64 {
	f := b.base
	for _, t := range b.trees {
		f += b.cfg.LearningRate * t.predict(x)
	}
	return sigmoid(f)
}

func sigmoid(z float64) float64 {
	return 1 / (1 + math.Exp(-z))
}
