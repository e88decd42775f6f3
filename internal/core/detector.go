package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/features"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml/boost"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml/forest"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml/knn"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml/svm"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml/tree"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// ClassifierName identifies one of the paper's five compared detectors
// (Table IV).
type ClassifierName string

// The five classifier families of the paper's Table IV.
const (
	ClassifierDT  ClassifierName = "DT"
	ClassifierKNN ClassifierName = "kNN"
	ClassifierSVM ClassifierName = "SVM"
	ClassifierEGB ClassifierName = "EGB"
	ClassifierRF  ClassifierName = "RF"
)

// ClassifierNames lists the families in the paper's Table IV row order.
var ClassifierNames = []ClassifierName{
	ClassifierDT, ClassifierKNN, ClassifierSVM, ClassifierEGB, ClassifierRF,
}

// NewClassifier constructs a fresh classifier of the named family with the
// configurations used for the paper's comparison (RF: 70 trees, depth 700).
// Split finding is exact — every distinct feature value is a candidate
// threshold — which is the mode all paper-config results and golden
// fingerprints are pinned under.
func NewClassifier(name ClassifierName, seed int64) (ml.Classifier, error) {
	return newClassifierBins(name, seed, 0)
}

// DefaultRetrainBins is the histogram bin count retraining and
// cross-validation loops default to. 64 quantile bins keep split quality
// within noise of the exact scan on the 58-feature space while cutting
// the candidate set per node by orders of magnitude — the right trade
// where a model is fit over and over (sliding-window retrains, k-fold
// CV), as opposed to the single paper-config fit that must stay exact.
const DefaultRetrainBins = 64

// NewBinnedClassifier is NewClassifier with histogram-binned split
// finding (DefaultRetrainBins quantile edges) for the tree-based
// families; kNN and SVM have no split search and are unchanged. Use it
// in loops that refit many times; keep NewClassifier where exactness
// against the paper configuration matters.
func NewBinnedClassifier(name ClassifierName, seed int64) (ml.Classifier, error) {
	return newClassifierBins(name, seed, DefaultRetrainBins)
}

func newClassifierBins(name ClassifierName, seed int64, bins int) (ml.Classifier, error) {
	switch name {
	case ClassifierDT:
		return tree.New(tree.Config{MaxDepth: 6, MinLeaf: 8, Seed: seed, Bins: bins}), nil
	case ClassifierKNN:
		return knn.New(knn.Config{K: 7, MaxTrain: 4000, Seed: seed}), nil
	case ClassifierSVM:
		return svm.New(svm.Config{Epochs: 15, PositiveWeight: 3, Seed: seed}), nil
	case ClassifierEGB:
		return boost.New(boost.Config{
			Rounds: 160, MaxDepth: 5, LearningRate: 0.15, MinLeaf: 5,
			Subsample: 0.8, Seed: seed, Bins: bins,
		}), nil
	case ClassifierRF:
		cfg := forest.PaperConfig()
		cfg.Seed = seed
		cfg.Bins = bins
		return forest.New(cfg), nil
	default:
		return nil, fmt.Errorf("core: unknown classifier %q", name)
	}
}

// Detector is the pseudo-honeypot spam detector: a trained classifier over
// the 58-feature space.
type Detector struct {
	clf    ml.Classifier
	ins    *detectorInstruments
	tracer *trace.Tracer
}

// NewDetector wraps a classifier, reporting through metrics.Default() and
// tracing through trace.Default().
func NewDetector(clf ml.Classifier) *Detector {
	return &Detector{
		clf:    clf,
		ins:    newDetectorInstruments(metrics.Default()),
		tracer: trace.Default(),
	}
}

// SetMetrics rebinds the detector's instrumentation to r (nil restores
// metrics.Default()); call it before Train/Classify.
func (d *Detector) SetMetrics(r *metrics.Registry) {
	if r == nil {
		r = metrics.Default()
	}
	d.ins = newDetectorInstruments(r)
}

// SetTracer rebinds the detector's tracer (nil restores trace.Default()).
func (d *Detector) SetTracer(t *trace.Tracer) {
	if t == nil {
		t = trace.Default()
	}
	d.tracer = t
}

// BuildDataset joins captured feature vectors with pipeline labels into a
// training dataset. The rows share one contiguous backing array, each
// capped at its own length.
func BuildDataset(captures []*Capture, labels *label.Result) (*ml.Dataset, error) {
	if labels == nil {
		return nil, errors.New("core: nil labels")
	}
	const d = features.NumFeatures
	flat := make([]float64, len(captures)*d)
	x := make([][]float64, len(captures))
	y := make([]bool, len(captures))
	for i, c := range captures {
		x[i] = flat[i*d : (i+1)*d : (i+1)*d]
		copy(x[i], c.Vector[:])
		y[i] = labels.IsSpam(c.Tweet.ID)
	}
	return ml.NewDataset(x, y)
}

// Train fits the detector on labeled captures.
func (d *Detector) Train(captures []*Capture, labels *label.Result) error {
	ds, err := BuildDataset(captures, labels)
	if err != nil {
		return err
	}
	if ds.Len() == 0 {
		return errors.New("core: empty training set")
	}
	tr := d.tracer.Start("detector_train")
	if tr != nil {
		tr.SetAttr("samples", fmt.Sprint(ds.Len()))
	}
	defer trace.SetActive(tr)()
	sp := tr.StartSpan("detector_train")
	start := time.Now()
	if err := d.clf.Fit(ds.X, ds.Y); err != nil {
		tr.Finish()
		return err
	}
	d.ins.trainSecs.ObserveDuration(start)
	sp.End()
	tr.Finish()
	return nil
}

// FeatureImportance reports the trained detector's normalized per-feature
// importances over the 58-feature space, or nil when the underlying
// classifier family does not expose them (only the random forest does).
func (d *Detector) FeatureImportance() []float64 {
	type importancer interface{ FeatureImportance(int) []float64 }
	f, ok := d.clf.(importancer)
	if !ok {
		return nil
	}
	return f.FeatureImportance(features.NumFeatures)
}

// Classify returns a verdict per capture, index-aligned. The batch fans
// out over the process-default worker pool in contiguous chunks; every
// classifier family's Predict is read-only after Fit, so verdicts are
// identical to a sequential pass at any worker count.
func (d *Detector) Classify(captures []*Capture) []bool {
	start := time.Now()
	tr := d.tracer.Start("detector_classify")
	if tr != nil {
		tr.SetAttr("captures", fmt.Sprint(len(captures)))
	}
	defer trace.SetActive(tr)()
	sp := tr.StartSpan("detector_classify")
	verdicts := make([]bool, len(captures))
	if bp, ok := d.clf.(batchPredictor); ok && untraced(captures) {
		// Batch fast path: hand the whole batch to the classifier's
		// buffer-reusing batch predictor (the flat forest walks it
		// tree-major over contiguous nodes). Taken only when no capture
		// carries a trace — per-capture "classify" spans would otherwise
		// be lost — and identical to the per-sample path by the batch
		// predictors' contract.
		xs := classifyScratch.Get().(*[][]float64)
		vecs := (*xs)[:0]
		for _, c := range captures {
			vecs = append(vecs, c.Vector[:])
		}
		bp.PredictBatchInto(vecs, verdicts)
		clear(vecs) // drop capture references before pooling
		*xs = vecs[:0]
		classifyScratch.Put(xs)
	} else {
		parallel.ForEachChunk(len(captures), 0, classifyMinChunk, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				// Each capture's own trace gets a "classify" span so the
				// per-capture journey covers the verdict; timing uses the
				// capture trace's clock, so simulated runs stay replayable.
				csp := captures[i].Trace.StartSpan("classify")
				verdicts[i] = d.clf.Predict(captures[i].Vector[:])
				csp.End()
			}
		})
	}
	sp.End()
	tr.Finish()
	spams := 0
	for _, v := range verdicts {
		if v {
			spams++
		}
	}
	d.ins.classifySecs.ObserveDuration(start)
	d.ins.classifications.Add(float64(len(verdicts)))
	d.ins.spams.Add(float64(spams))
	if len(verdicts) > 0 {
		d.ins.spamRatio.Set(float64(spams) / float64(len(verdicts)))
	}
	return verdicts
}

// classifyMinChunk keeps classification chunks large enough that pool
// dispatch overhead stays negligible next to each prediction (a 70-tree
// vote for the deployed RF).
const classifyMinChunk = 16

// batchPredictor is the optional batch interface classifiers expose for
// buffer-reusing whole-batch prediction (the random forest's flattened
// predictor implements it).
type batchPredictor interface {
	PredictBatchInto(x [][]float64, out []bool) []bool
}

// classifyScratch pools the per-batch feature-vector view built for the
// batch fast path; the views alias capture vectors and are released before
// Classify returns.
var classifyScratch = sync.Pool{New: func() any { return new([][]float64) }}

// untraced reports whether no capture in the batch carries a trace.
func untraced(captures []*Capture) bool {
	for _, c := range captures {
		if c.Trace != nil {
			return false
		}
	}
	return true
}

// Attach wires a monitor to an in-process engine: the node set rotates at
// every simulated hour start and the monitor filters the engine's firehose.
// It returns a detach function removing the stream subscription.
func Attach(m *Monitor, e *socialnet.Engine) (detach func()) {
	world := e.World()
	e.OnHourStart(func(hour int, now time.Time) {
		m.Rotate(now, time.Hour)
	})
	return e.Subscribe(func(t *socialnet.Tweet) {
		m.OnTweet(t, world.Account)
	})
}
