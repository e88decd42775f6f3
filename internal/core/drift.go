package core

import (
	"errors"
	"fmt"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml"
)

// OnlineDetector implements the paper's §IV-C direction on the Twitter
// spammer-drift problem: spammers' tastes and signatures change over time,
// so the detector retrains periodically on a sliding window of recent
// labeled captures instead of freezing on the initial ground truth. The
// pseudo-honeypot keeps supplying fresh labeled data (new suspensions,
// cluster propagation), so the window stays current by construction.
type OnlineDetector struct {
	name         ClassifierName
	seed         int64
	window       int
	retrainEvery int

	x [][]float64
	y []bool

	clf       ml.Classifier
	sinceFit  int
	retrains  int
	everTrain bool
}

// NewOnlineDetector creates a drift-aware detector of the named family.
// window bounds the retained labeled captures (older ones are evicted);
// retrainEvery is the number of new observations between refits.
func NewOnlineDetector(name ClassifierName, window, retrainEvery int, seed int64) (*OnlineDetector, error) {
	if window <= 0 {
		return nil, errors.New("core: window must be positive")
	}
	if retrainEvery <= 0 {
		retrainEvery = window / 4
		if retrainEvery == 0 {
			retrainEvery = 1
		}
	}
	if _, err := NewClassifier(name, seed); err != nil {
		return nil, err
	}
	return &OnlineDetector{
		name:         name,
		seed:         seed,
		window:       window,
		retrainEvery: retrainEvery,
	}, nil
}

// Observe adds one labeled capture to the sliding window, retraining when
// due. Labels come from whatever ground-truth stream is available —
// pipeline output, fresh suspensions, or manual review.
func (o *OnlineDetector) Observe(c *Capture, spam bool) error {
	vec := make([]float64, len(c.Vector))
	copy(vec, c.Vector[:])
	o.x = append(o.x, vec)
	o.y = append(o.y, spam)
	if len(o.x) > o.window {
		drop := len(o.x) - o.window
		o.x = o.x[drop:]
		o.y = o.y[drop:]
	}
	o.sinceFit++
	if !o.everTrain || o.sinceFit >= o.retrainEvery {
		if err := o.retrain(); err != nil {
			return err
		}
	}
	return nil
}

// retrain refits the classifier on the current window. Training waits
// until the window holds both classes.
func (o *OnlineDetector) retrain() error {
	pos := 0
	for _, v := range o.y {
		if v {
			pos++
		}
	}
	if pos == 0 || pos == len(o.y) {
		return nil // single-class window: keep the previous model
	}
	clf, err := NewClassifier(o.name, o.seed+int64(o.retrains))
	if err != nil {
		return err
	}
	if err := clf.Fit(o.x, o.y); err != nil {
		return fmt.Errorf("online retrain: %w", err)
	}
	o.clf = clf
	o.everTrain = true
	o.sinceFit = 0
	o.retrains++
	return nil
}

// Classify predicts one capture with the current model. Before the first
// successful training it conservatively returns false.
func (o *OnlineDetector) Classify(c *Capture) bool {
	if o.clf == nil {
		return false
	}
	return o.clf.Predict(c.Vector[:])
}

// Retrains reports how many times the model has been refit.
func (o *OnlineDetector) Retrains() int { return o.retrains }

// WindowSize reports the number of labeled captures currently retained.
func (o *OnlineDetector) WindowSize() int { return len(o.x) }
