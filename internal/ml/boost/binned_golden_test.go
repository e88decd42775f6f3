package boost

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// goldenBinnedBoostFingerprint was captured at Bins: 64
// (core.DefaultRetrainBins) with Table IV's EGB configuration before the
// split engine took row subsamples as row counts. It pins binned
// boosting end to end: quantile edges over each round's subsample, the
// binned-vs-exact choice per node, and the Newton leaf values.
const goldenBinnedBoostFingerprint = "628a18f4bbfe4ce8065951b5bbcc3ea0d62cbe57ab4ba3071ca02494980cd5fb"

// TestBoostBinnedGoldenPredictions fits the EGB configuration core
// builds for cross-validation, binned, and hashes its probabilities.
func TestBoostBinnedGoldenPredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x, y := propDataset(rng, 800, false)
	b := New(Config{
		Rounds: 160, MaxDepth: 5, LearningRate: 0.15, MinLeaf: 5,
		Subsample: 0.8, Seed: 7, Bins: 64,
	})
	if err := b.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	probes, _ := propDataset(rng, 300, false)
	h := sha256.New()
	var buf [8]byte
	for _, p := range probes {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(b.PredictProba(p)))
		h.Write(buf[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenBinnedBoostFingerprint {
		t.Fatalf("binned boost fingerprint drifted:\n got  %s\n want %s", got, goldenBinnedBoostFingerprint)
	}
}
