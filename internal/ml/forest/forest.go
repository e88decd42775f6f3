// Package forest implements a random forest classifier: bootstrap-sampled
// CART trees with per-split random feature subsets and majority voting.
// The paper deploys this model in the pseudo-honeypot detector, configured
// with 70 trees of maximum depth 700 (§V-C).
package forest

import (
	"errors"
	"math"
	"math/rand"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml/split"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml/tree"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
)

// Config holds random-forest hyperparameters.
type Config struct {
	// Trees is the ensemble size (the paper uses 70).
	Trees int
	// MaxDepth bounds each tree (the paper uses 700, effectively
	// unbounded at these dataset sizes).
	MaxDepth int
	// MinLeaf is the per-tree minimum leaf size.
	MinLeaf int
	// MaxFeatures per split; non-positive selects √d.
	MaxFeatures int
	// Seed drives bootstrap sampling and feature subsets.
	Seed int64
	// Workers bounds the training/prediction pool; 0 resolves the
	// process default (PH_WORKERS or GOMAXPROCS). The fitted model is
	// bit-identical at any worker count: each tree derives its own
	// random stream from Seed and its tree index.
	Workers int
	// Bins enables histogram-binned split finding in every tree (see
	// tree.Config.Bins); non-positive keeps the exact scan.
	Bins int
}

// PaperConfig returns the configuration the paper deploys: 70 trees with a
// maximum depth of 700.
func PaperConfig() Config {
	return Config{Trees: 70, MaxDepth: 700, Seed: 1}
}

// Forest is a trained random forest.
type Forest struct {
	cfg   Config
	trees []*tree.Tree
	// flat is the compiled contiguous predictor (nil until Fit succeeds).
	flat *flatForest
}

// New creates an untrained forest.
func New(cfg Config) *Forest {
	if cfg.Trees <= 0 {
		cfg.Trees = 70
	}
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	return &Forest{cfg: cfg}
}

// Fit trains the ensemble. A cheap sequential pre-pass draws every tree's
// bootstrap indices and split seed from the single master RNG in tree
// order — exactly the draws the former sequential loop made — and the
// expensive tree growth then fans out over the configured worker pool.
// The fitted model is therefore bit-identical to a sequential fit (and to
// pre-parallelism models from the same Seed) regardless of worker count.
func (f *Forest) Fit(x [][]float64, y []bool) error {
	if len(x) == 0 || len(x) != len(y) {
		return errors.New("forest: empty or mismatched training data")
	}
	f.trees = make([]*tree.Tree, f.cfg.Trees)
	n := len(x)
	boots, seeds := f.drawBootstraps(n)

	// The feature space is sorted once; every tree's bootstrap view is
	// expanded from the shared pristine order in O(d·n) instead of
	// re-sorting per tree (Presort is immutable and safe to share).
	presort := split.NewPresort(x)

	workers := parallel.Resolve(f.cfg.Workers, f.cfg.Trees)
	// Per-worker bootstrap views: a tree's training view is consumed by
	// FitEngine before its worker moves on, so the buffers (including the
	// split engine) can be reused.
	type scratch struct {
		bx  [][]float64
		by  []bool
		eng *split.Engine
	}
	scratches := make([]scratch, workers)
	errs := make([]error, f.cfg.Trees)
	parallel.ForEachWorker(f.cfg.Trees, workers, func(w, ti int) {
		s := &scratches[w]
		if s.bx == nil {
			s.bx = make([][]float64, n)
			s.by = make([]bool, n)
		}
		for i, j := range boots[ti] {
			s.bx[i] = x[j]
			s.by[i] = y[j]
		}
		t := tree.New(f.treeConfig(len(x[0]), seeds[ti]))
		s.eng = presort.NewBootstrapEngine(s.bx, boots[ti], s.eng)
		err := t.FitEngine(s.eng, s.by)
		boots[ti] = nil // release while later trees still train
		if err != nil {
			errs[ti] = err
			return
		}
		f.trees[ti] = t
	})
	for _, err := range errs {
		if err != nil {
			f.trees, f.flat = nil, nil
			return err
		}
	}
	f.flat = compileFlat(f.trees)
	return nil
}

// drawBootstraps draws every tree's bootstrap row indices over n rows and
// its split seed from the master RNG, in tree order.
func (f *Forest) drawBootstraps(n int) (boots [][]int32, seeds []int64) {
	rng := rand.New(rand.NewSource(f.cfg.Seed))
	boots = make([][]int32, f.cfg.Trees)
	seeds = make([]int64, f.cfg.Trees)
	for ti := range boots {
		idx := make([]int32, n)
		for i := 0; i < n; i++ {
			idx[i] = int32(rng.Intn(n))
		}
		boots[ti] = idx
		seeds[ti] = rng.Int63()
	}
	return boots, seeds
}

// treeConfig is one member tree's configuration over d features.
func (f *Forest) treeConfig(d int, seed int64) tree.Config {
	maxFeatures := f.cfg.MaxFeatures
	if maxFeatures <= 0 {
		maxFeatures = int(math.Sqrt(float64(d)))
		if maxFeatures < 1 {
			maxFeatures = 1
		}
	}
	return tree.Config{
		MaxDepth:    f.cfg.MaxDepth,
		MinLeaf:     f.cfg.MinLeaf,
		MaxFeatures: maxFeatures,
		Seed:        seed,
		Bins:        f.cfg.Bins,
	}
}

// Predict returns the majority vote.
func (f *Forest) Predict(x []float64) bool {
	if f.flat == nil {
		return false
	}
	return f.flat.votes(x)*2 > len(f.trees)
}

// PredictBatch majority-votes every sample, fanning the batch out over
// the configured worker pool in contiguous chunks. The result is
// index-aligned with x and identical to calling Predict per sample.
func (f *Forest) PredictBatch(x [][]float64) []bool {
	return f.PredictBatchInto(x, nil)
}

// PredictBatchInto is PredictBatch writing into out (reused when its
// capacity suffices, so steady-state callers allocate nothing). On the
// flat predictor the batch walks tree-major over micro-blocks of samples
// — one tree's contiguous nodes against a cache-resident block of rows —
// with the vote tally on the worker's stack.
func (f *Forest) PredictBatchInto(x [][]float64, out []bool) []bool {
	if cap(out) < len(x) {
		out = make([]bool, len(x))
	}
	out = out[:len(x)]
	if f.flat == nil {
		clear(out)
		return out
	}
	ff := f.flat
	trees := len(f.trees)
	if f.batchWorkers(len(x)) == 1 {
		// Direct call: the single-worker fast path allocates nothing (no
		// fan-out closures), which the alloc regression tests pin.
		ff.predictRange(x, 0, len(x), trees, out)
		return out
	}
	parallel.ForEachChunk(len(x), f.cfg.Workers, batchMinChunk, func(lo, hi int) {
		ff.predictRange(x, lo, hi, trees, out)
	})
	return out
}

// batchWorkers resolves the worker count a batch of n samples fans out to.
func (f *Forest) batchWorkers(n int) int {
	return parallel.Resolve(f.cfg.Workers, (n+batchMinChunk-1)/batchMinChunk)
}

// PredictProbaBatch returns the spam-vote fraction of every sample,
// computed like PredictBatch.
func (f *Forest) PredictProbaBatch(x [][]float64) []float64 {
	return f.PredictProbaBatchInto(x, nil)
}

// PredictProbaBatchInto is PredictProbaBatch writing into out (reused when
// its capacity suffices), batched like PredictBatchInto.
func (f *Forest) PredictProbaBatchInto(x [][]float64, out []float64) []float64 {
	if cap(out) < len(x) {
		out = make([]float64, len(x))
	}
	out = out[:len(x)]
	if f.flat == nil {
		clear(out)
		return out
	}
	ff := f.flat
	trees := len(f.trees)
	if f.batchWorkers(len(x)) == 1 {
		ff.probaRange(x, 0, len(x), trees, out)
		return out
	}
	parallel.ForEachChunk(len(x), f.cfg.Workers, batchMinChunk, func(lo, hi int) {
		ff.probaRange(x, lo, hi, trees, out)
	})
	return out
}

// batchMinChunk keeps batch-prediction chunks large enough that pool
// dispatch overhead stays negligible next to the 70-tree vote per sample.
const batchMinChunk = 16

// FeatureImportance returns the normalized mean decrease in Gini impurity
// per feature across the ensemble (values sum to 1 when any splits exist).
// d is the feature dimensionality.
func (f *Forest) FeatureImportance(d int) []float64 {
	imp := make([]float64, d)
	for _, t := range f.trees {
		t.FeatureImportance(imp)
	}
	total := 0.0
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}

// PredictProba returns the fraction of trees voting spam.
func (f *Forest) PredictProba(x []float64) float64 {
	if f.flat == nil {
		return 0
	}
	return float64(f.flat.votes(x)) / float64(len(f.trees))
}
