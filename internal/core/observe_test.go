package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// TestMetricsReconcileWithGroupStats runs a small end-to-end monitor +
// detector pass against a private registry and asserts every emitted
// metric value matches the numbers the existing code paths compute
// (GroupStats, ComputePGE, verdict counts) exactly.
func TestMetricsReconcileWithGroupStats(t *testing.T) {
	reg := metrics.NewRegistry()
	w := testWorld(t)
	e := socialnet.NewEngine(w)
	m := NewMonitor(MonitorConfig{
		Specs:   StandardSpecs(1),
		Seed:    1,
		Metrics: reg,
	}, &LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
	detach := Attach(m, e)
	defer detach()
	e.RunHours(5)

	captures := m.Captures()
	if len(captures) == 0 {
		t.Fatal("no captures after 5 hours")
	}

	labels := labelCaptures(captures, w)
	clf, err := NewClassifier(ClassifierDT, 1)
	if err != nil {
		t.Fatal(err)
	}
	det := NewDetector(clf)
	det.SetMetrics(reg)
	if err := det.Train(captures, labels); err != nil {
		t.Fatal(err)
	}
	verdicts := det.Classify(captures)
	m.AttributeSpam(verdicts)

	// Monitor totals.
	if got := reg.Counter("ph_monitor_tweets_captured_total", "").Value(); got != float64(len(captures)) {
		t.Fatalf("tweets_captured = %v, want %d", got, len(captures))
	}
	if got := reg.Counter("ph_monitor_rotations_total", "").Value(); got != float64(m.Rotations()) {
		t.Fatalf("rotations = %v, want %d", got, m.Rotations())
	}
	if got := reg.Gauge("ph_monitor_nodes", "").Value(); got != float64(m.NodeCount()) {
		t.Fatalf("nodes gauge = %v, want %d", got, m.NodeCount())
	}
	if got := reg.Histogram("ph_monitor_rotation_seconds", "", nil).Count(); got != uint64(m.Rotations()) {
		t.Fatalf("rotation histogram count = %d, want %d", got, m.Rotations())
	}

	// Per-group series reconcile with GroupStats, and the PGE gauges with
	// ComputePGE.
	groupTweets := reg.CounterVec("ph_monitor_group_tweets_total", "", "selector")
	nodeHours := reg.CounterVec("ph_monitor_group_node_hours_total", "", "selector")
	spams := reg.GaugeVec("ph_monitor_group_spams", "", "selector")
	spammers := reg.GaugeVec("ph_monitor_group_spammers", "", "selector")
	pge := reg.GaugeVec("ph_monitor_group_pge", "", "selector")
	pgeBySelector := make(map[string]float64)
	for _, row := range ComputePGE(m.Groups()) {
		pgeBySelector[row.Selector.String()] = row.PGE
	}
	for _, g := range m.Groups() {
		sel := g.Spec.Selector.String()
		if got := groupTweets.With(sel).Value(); got != float64(g.Tweets) {
			t.Fatalf("%s tweets = %v, want %d", sel, got, g.Tweets)
		}
		if got := nodeHours.With(sel).Value(); !approxEq(got, g.NodeHours) {
			t.Fatalf("%s node-hours = %v, want %v", sel, got, g.NodeHours)
		}
		if got := spams.With(sel).Value(); got != float64(g.Spams) {
			t.Fatalf("%s spams = %v, want %d", sel, got, g.Spams)
		}
		if got := spammers.With(sel).Value(); got != float64(len(g.Spammers)) {
			t.Fatalf("%s spammers = %v, want %d", sel, got, len(g.Spammers))
		}
		if got := pge.With(sel).Value(); !approxEq(got, pgeBySelector[sel]) {
			t.Fatalf("%s pge gauge = %v, want %v", sel, got, pgeBySelector[sel])
		}
	}

	// Detector counters reconcile with the verdicts.
	spamCount := 0
	for _, v := range verdicts {
		if v {
			spamCount++
		}
	}
	if got := reg.Counter("ph_detector_classifications_total", "").Value(); got != float64(len(verdicts)) {
		t.Fatalf("classifications = %v, want %d", got, len(verdicts))
	}
	if got := reg.Counter("ph_detector_spam_total", "").Value(); got != float64(spamCount) {
		t.Fatalf("detector spam = %v, want %d", got, spamCount)
	}
	wantRatio := float64(spamCount) / float64(len(verdicts))
	if got := reg.Gauge("ph_detector_spam_ratio", "").Value(); !approxEq(got, wantRatio) {
		t.Fatalf("spam ratio = %v, want %v", got, wantRatio)
	}
	if got := reg.Histogram("ph_detector_train_seconds", "", nil).Count(); got != 1 {
		t.Fatalf("train histogram count = %d, want 1", got)
	}

	// The whole registry must expose as valid Prometheus text.
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := metrics.ParseText(strings.NewReader(b.String())); err != nil {
		t.Fatalf("core instrumentation exposition invalid: %v", err)
	}
}

// TestAccrueHoursUpdatesMetrics pins the static-deployment path: accrued
// hours land in the node-hours counters without a rotation tick.
func TestAccrueHoursUpdatesMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	w := testWorld(t)
	m := NewMonitor(MonitorConfig{Specs: RandomSpec(20), Seed: 1, Metrics: reg},
		&LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
	m.Rotate(time.Now(), time.Hour)
	m.AccrueHours(2 * time.Hour)
	g := m.Groups()[0]
	sel := g.Spec.Selector.String()
	got := reg.CounterVec("ph_monitor_group_node_hours_total", "", "selector").With(sel).Value()
	if !approxEq(got, g.NodeHours) {
		t.Fatalf("node-hours counter = %v, want %v", got, g.NodeHours)
	}
	if reg.Counter("ph_monitor_rotations_total", "").Value() != 1 {
		t.Fatal("AccrueHours must not count as a rotation")
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
