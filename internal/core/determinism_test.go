package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// TestClassifyDeterministicAcrossWorkerCounts verifies the
// worker-invariance contract on the detection hot path: a trained detector
// returns identical verdicts whether the batch fans out over 1 or 8
// workers (driven through the PH_WORKERS knob, as a deployment would).
func TestClassifyDeterministicAcrossWorkerCounts(t *testing.T) {
	w := testWorld(t)
	e := socialnet.NewEngine(w)
	m := NewMonitor(MonitorConfig{
		Specs: RandomSpec(120),
		Seed:  1,
	}, &LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
	detach := Attach(m, e)
	defer detach()
	e.RunHours(6)

	captures := m.Captures()
	if len(captures) < 50 {
		t.Fatalf("only %d captures", len(captures))
	}
	labels := labelCaptures(captures, w)

	clf, err := NewClassifier(ClassifierRF, 1)
	if err != nil {
		t.Fatal(err)
	}
	det := NewDetector(clf)
	if err := det.Train(captures, labels); err != nil {
		t.Fatal(err)
	}

	t.Setenv(parallel.EnvWorkers, "1")
	ref := det.Classify(captures)
	t.Setenv(parallel.EnvWorkers, "8")
	got := det.Classify(captures)
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("verdicts diverge between PH_WORKERS=1 and PH_WORKERS=8")
	}
}
