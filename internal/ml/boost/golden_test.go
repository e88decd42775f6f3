package boost

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// goldenBoostFingerprint pins Table IV's EGB configuration end to end:
// each round's subsample, the exact split search and the Newton leaf
// values all feed the hashed probabilities.
const goldenBoostFingerprint = "6ed7fc51d1fbbb38b8ba0c63ea87987750ec33fe6a3165cd69a51dc6cd4dfdcd"

// TestBoostGoldenPredictions fits the EGB configuration core builds and
// hashes its probabilities on held-out probes.
func TestBoostGoldenPredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x, y := propDataset(rng, 800, false)
	b := New(Config{
		Rounds: 160, MaxDepth: 5, LearningRate: 0.15, MinLeaf: 5,
		Subsample: 0.8, Seed: 7,
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
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenBoostFingerprint {
		t.Fatalf("boost fingerprint drifted:\n got  %s\n want %s", got, goldenBoostFingerprint)
	}
}
