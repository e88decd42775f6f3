package core

import (
	"math/rand"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/features"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// driftCapture fabricates a capture whose spam signature lives in the
// mention-time and source features. Regime 0 spammers react in seconds
// from third-party clients; regime 1 spammers (after the drift) slow down
// and switch to mobile clients but flood hashtags instead.
func driftCapture(rng *rand.Rand, spam bool, regime int) (*Capture, bool) {
	var v features.Vector
	v[features.FSenderFriends] = 200 + rng.Float64()*100
	v[features.FSenderFollowers] = 100 + rng.Float64()*100
	v[features.FBehaviorMentionTime] = 1800 + rng.Float64()*3600
	v[features.FContentSource] = float64(socialnet.SourceMobile)
	v[features.FContentHashtags] = float64(rng.Intn(2))
	if spam {
		if regime == 0 {
			v[features.FBehaviorMentionTime] = 20 + rng.Float64()*60
			v[features.FContentSource] = float64(socialnet.SourceThirdParty)
		} else {
			// Drifted: human-like delays, mobile client, hashtag floods.
			v[features.FBehaviorMentionTime] = 1500 + rng.Float64()*3000
			v[features.FContentSource] = float64(socialnet.SourceMobile)
			v[features.FContentHashtags] = 4 + float64(rng.Intn(4))
		}
	}
	return &Capture{Tweet: &socialnet.Tweet{}, Vector: v}, spam
}

// driftProbe fabricates an unlabeled capture at a random point between a
// ham and a spam capture of one regime, where the verdict depends on where
// a model puts the class boundary.
func driftProbe(rng *rand.Rand, regime int) *Capture {
	p, _ := driftCapture(rng, false, regime)
	s, _ := driftCapture(rng, true, regime)
	frac := rng.Float64()
	for f := range p.Vector {
		p.Vector[f] += frac * (s.Vector[f] - p.Vector[f])
	}
	return p
}

func TestOnlineDetectorTracksDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	online, err := NewOnlineDetector(ClassifierRF, 400, 50, 1)
	if err != nil {
		t.Fatal(err)
	}

	// A frozen detector trained on regime 0 only.
	var frozenX [][]float64
	var frozenY []bool

	// Phase 1: regime 0.
	for i := 0; i < 400; i++ {
		spam := rng.Float64() < 0.3
		c, label := driftCapture(rng, spam, 0)
		if err := online.Observe(c, label); err != nil {
			t.Fatal(err)
		}
		vec := make([]float64, len(c.Vector))
		copy(vec, c.Vector[:])
		frozenX = append(frozenX, vec)
		frozenY = append(frozenY, label)
	}
	frozenClf, err := NewClassifier(ClassifierRF, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := frozenClf.Fit(frozenX, frozenY); err != nil {
		t.Fatal(err)
	}

	// Phase 2: the drift. The online detector keeps observing labeled
	// captures; the frozen one does not.
	for i := 0; i < 400; i++ {
		spam := rng.Float64() < 0.3
		c, label := driftCapture(rng, spam, 1)
		if err := online.Observe(c, label); err != nil {
			t.Fatal(err)
		}
	}

	// Evaluate both on fresh regime-1 traffic.
	var onlineCorrect, frozenCorrect, n int
	for i := 0; i < 300; i++ {
		spam := rng.Float64() < 0.3
		c, label := driftCapture(rng, spam, 1)
		if online.Classify(c) == label {
			onlineCorrect++
		}
		if frozenClf.Predict(c.Vector[:]) == label {
			frozenCorrect++
		}
		n++
	}
	onlineAcc := float64(onlineCorrect) / float64(n)
	frozenAcc := float64(frozenCorrect) / float64(n)
	if onlineAcc < 0.85 {
		t.Fatalf("online accuracy after drift = %v", onlineAcc)
	}
	if onlineAcc <= frozenAcc {
		t.Fatalf("online (%v) no better than frozen (%v) after drift",
			onlineAcc, frozenAcc)
	}
	if online.Retrains() < 2 {
		t.Fatalf("online detector retrained only %d times", online.Retrains())
	}
}

func TestOnlineDetectorWindowEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	online, err := NewOnlineDetector(ClassifierDT, 100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 250; i++ {
		c, label := driftCapture(rng, i%3 == 0, 0)
		if err := online.Observe(c, label); err != nil {
			t.Fatal(err)
		}
	}
	if online.WindowSize() != 100 {
		t.Fatalf("window holds %d, want 100", online.WindowSize())
	}
}

func TestOnlineDetectorSingleClassWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	online, err := NewOnlineDetector(ClassifierDT, 50, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Only negatives: no training happens, Classify stays conservative.
	for i := 0; i < 20; i++ {
		c, _ := driftCapture(rng, false, 0)
		if err := online.Observe(c, false); err != nil {
			t.Fatal(err)
		}
	}
	if online.Retrains() != 0 {
		t.Fatal("trained on a single-class window")
	}
	c, _ := driftCapture(rng, true, 0)
	if online.Classify(c) {
		t.Fatal("untrained detector predicted spam")
	}
}

func TestNewOnlineDetectorValidation(t *testing.T) {
	if _, err := NewOnlineDetector(ClassifierRF, 0, 5, 1); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := NewOnlineDetector("bogus", 10, 5, 1); err == nil {
		t.Fatal("bogus classifier accepted")
	}
	od, err := NewOnlineDetector(ClassifierRF, 10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if od.retrainEvery <= 0 {
		t.Fatal("retrainEvery not defaulted")
	}
}

// TestOnlineRefitMatchesNewClassifier: a sliding-window refit is the
// classifier NewClassifier builds, fit on the window with the retrain's
// seed, so the online detector splits exactly as the deployed one does.
// The probes are driftProbes, where a coarser split search would move
// the boundary.
func TestOnlineRefitMatchesNewClassifier(t *testing.T) {
	for _, name := range []ClassifierName{ClassifierDT, ClassifierRF, ClassifierEGB} {
		t.Run(string(name), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			online, err := NewOnlineDetector(name, 400, 100, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Stop on a retrain, so the window is what the model was fit on.
			for i := 0; i < 600 || online.sinceFit != 0; i++ {
				c, label := driftCapture(rng, rng.Float64() < 0.4, i/300)
				if err := online.Observe(c, label); err != nil {
					t.Fatal(err)
				}
			}
			if online.Retrains() < 2 {
				t.Fatalf("online detector retrained only %d times", online.Retrains())
			}
			ref, err := NewClassifier(name, online.seed+int64(online.Retrains()-1))
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Fit(online.x, online.y); err != nil {
				t.Fatal(err)
			}
			probes := rand.New(rand.NewSource(17))
			spam := 0
			for i := 0; i < 200; i++ {
				regime := i % 2
				p := driftProbe(probes, regime)
				got, want := online.Classify(p), ref.Predict(p.Vector[:])
				if got != want {
					t.Fatalf("probe %d (regime %d): online verdict %v, NewClassifier %v", i, regime, got, want)
				}
				if got {
					spam++
				}
			}
			if spam == 0 || spam == 200 {
				t.Fatalf("%d of 200 probes judged spam, want both verdicts", spam)
			}
		})
	}
}
