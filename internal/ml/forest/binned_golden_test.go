package forest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// Binned-mode fingerprints, captured at Bins: 64 (core.DefaultRetrainBins,
// the setting Table IV's cross-validation and drift retraining run) before
// the split engine took bootstraps as row counts. Binned splits depend on
// where the quantile edges fall in each tree's bootstrap and on which
// nodes scan binned rather than exactly, so these pin both.
const (
	goldenBinnedForestFingerprint  = "e32d4c9e24ef626d61eddb1a53be409b91aa2ffd1618163fc41d2c5d79f70c6c"
	captureBinnedForestFingerprint = "fca2074c8ba788503c72be78248593e82ebf11f8d0c1190daf5485d02deac5ff"
)

// forestFingerprint hashes a fitted forest's vote fractions, verdicts and
// Gini-gain importances over probes, the same observables as
// TestForestGoldenPredictions.
func forestFingerprint(f *Forest, probes [][]float64, d int) string {
	h := sha256.New()
	var buf [8]byte
	for _, row := range probes {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f.PredictProba(row)))
		h.Write(buf[:])
		if f.Predict(row) {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	for _, v := range f.FeatureImportance(d) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestForestBinnedGoldenPredictions pins the paper-config forest at
// Bins: 64 on the golden dataset.
func TestForestBinnedGoldenPredictions(t *testing.T) {
	x, y := goldenData(600, 42)
	cfg := PaperConfig()
	cfg.Bins = 64
	f := New(cfg)
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	tx, _ := goldenData(200, 43)
	if got := forestFingerprint(f, tx, 17); got != goldenBinnedForestFingerprint {
		t.Fatalf("binned forest fingerprint drifted:\n got  %s\n want %s", got, goldenBinnedForestFingerprint)
	}
}

// TestForestBinnedCaptureGolden pins a binned forest on the
// capture-shaped fixture, whose constant and low-cardinality columns put
// many bootstrap duplicates on each quantile edge.
func TestForestBinnedCaptureGolden(t *testing.T) {
	x, y := captureData(1)
	f := New(Config{Trees: 8, MaxDepth: 700, Seed: 3, Bins: 64})
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := forestFingerprint(f, x[:500], captureFeatures); got != captureBinnedForestFingerprint {
		t.Fatalf("binned capture forest fingerprint drifted:\n got  %s\n want %s", got, captureBinnedForestFingerprint)
	}
}
