package forest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// goldenData fabricates a pinned dataset for the verbatim-prediction golden
// test. A third of the columns are quantized to half-integers so the split
// scan faces heavy value ties — the case where an induction rewrite is most
// likely to drift.
func goldenData(n int, seed int64) ([][]float64, []bool) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]bool, n)
	for i := range x {
		row := make([]float64, 17)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		for j := 0; j < len(row); j += 3 {
			row[j] = math.Round(row[j]*2) / 2
		}
		pos := row[0]+row[1]*row[2] > 1
		if rng.Float64() < 0.05 {
			pos = !pos
		}
		x[i] = row
		y[i] = pos
	}
	return x, y
}

// goldenForestFingerprint was captured from the pre-presort per-node-sort
// implementation (commit e4ed6b2) at the paper configuration. The presorted
// split engine must reproduce it bit for bit: vote fractions, verdicts, and
// Gini-gain feature importances all feed the hash, so any drift in split
// choice, threshold midpoints, or gain bookkeeping fails this test.
const goldenForestFingerprint = "f15c21752247a0e73a081878e71669ea332677ee610def10e74667211ae8c207"

// TestForestGoldenPredictions pins the fitted model's observable behavior
// across induction-engine rewrites: same seed, same data ⇒ bit-identical
// probabilities, verdicts, and importances.
func TestForestGoldenPredictions(t *testing.T) {
	x, y := goldenData(600, 42)
	f := New(PaperConfig())
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	tx, _ := goldenData(200, 43)
	if got := forestFingerprint(f, tx, 17); got != goldenForestFingerprint {
		t.Fatalf("forest fingerprint drifted:\n got  %s\n want %s", got, goldenForestFingerprint)
	}
}

// forestFingerprint hashes a fitted forest's vote fractions, verdicts and
// Gini-gain importances over probes.
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

// captureForestFingerprint pins a forest on the capture-shaped fixture,
// whose constant and low-cardinality columns put many bootstrap
// duplicates on each tied value: the per-value class-count scan decides
// most of its splits.
const captureForestFingerprint = "3b490066a92dd4872c5867c703b6e14e0c7cf39d43bb359bdc62b5d90ecef26b"

// TestForestCaptureGolden pins the exact split finder end to end on the
// capture fixture.
func TestForestCaptureGolden(t *testing.T) {
	x, y := captureData(1)
	f := New(Config{Trees: 8, MaxDepth: 700, Seed: 3})
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := forestFingerprint(f, x[:500], captureFeatures); got != captureForestFingerprint {
		t.Fatalf("capture forest fingerprint drifted:\n got  %s\n want %s", got, captureForestFingerprint)
	}
}
