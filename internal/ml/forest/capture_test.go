package forest

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Shape of the detector's training set on the traced dense-stream
// workload (seed 1, 8 simulated hours): 7,056 labeled captures over the
// 58 features, 7.1 % of them spam.
const (
	captureRows     = 7056
	captureFeatures = 58
	capturePositive = 501 // 7.1 % of captureRows
)

// captureDistinct is the number of distinct values each low-cardinality
// column takes, matching the measured training set: 4 constant columns,
// 10 with at most 2 distinct values, 35 with at most 16, and a median of
// 13 over all 58. The remaining columns are continuous.
var captureDistinct = []int{
	1, 1, 1, 1,
	2, 2, 2, 2, 2, 2,
	3, 3, 4, 4, 5, 5, 6, 6, 7, 8, 8, 9, 9, 10, 10, 11, 12, 12, 13, 13, 14, 15, 16, 16, 16,
}

// captureData fabricates a capture-shaped training set: the measured row
// count, class balance and per-column cardinality of the dense-stream
// detector fit, with spam shifting a third of the columns so trees have
// real but noisy signal to split on.
func captureData(seed int64) ([][]float64, []bool) {
	rng := rand.New(rand.NewSource(seed))
	y := make([]bool, captureRows)
	for _, i := range rng.Perm(captureRows)[:capturePositive] {
		y[i] = true
	}
	x := make([][]float64, captureRows)
	for i := range x {
		row := make([]float64, captureFeatures)
		for f := range row {
			shift := 0.0
			if y[i] && f%3 == 0 {
				shift = 0.8
			}
			z := rng.NormFloat64() + shift
			if f < len(captureDistinct) {
				// Quantize a shifted normal into k levels.
				k := captureDistinct[f]
				row[f] = math.Max(0, math.Min(float64(k-1), math.Floor(z*float64(k)/4+float64(k)/2)))
			} else {
				row[f] = math.Exp(z) // heavy-tailed, like counts and ratios
			}
		}
		x[i] = row
	}
	return x, y
}

// TestCaptureFixtureShape pins captureData to the training set it stands
// for, so the benchmark keeps measuring the shape it claims.
func TestCaptureFixtureShape(t *testing.T) {
	x, y := captureData(1)
	pos := 0
	for _, v := range y {
		if v {
			pos++
		}
	}
	if len(x) != captureRows || len(x[0]) != captureFeatures || pos != capturePositive {
		t.Fatalf("%d×%d with %d positive, want %d×%d with %d",
			len(x), len(x[0]), pos, captureRows, captureFeatures, capturePositive)
	}
	distinct := make([]int, captureFeatures)
	constant, binary, small := 0, 0, 0
	for f := range distinct {
		seen := map[float64]bool{}
		for _, row := range x {
			seen[row[f]] = true
		}
		distinct[f] = len(seen)
		if distinct[f] == 1 {
			constant++
		}
		if distinct[f] <= 2 {
			binary++
		}
		if distinct[f] <= 16 {
			small++
		}
	}
	slices.Sort(distinct)
	median := float64(distinct[captureFeatures/2-1]+distinct[captureFeatures/2]) / 2
	if constant != 4 || binary != 10 || small != 35 || median != 13 {
		t.Fatalf("columns: %d constant, %d with ≤2 values, %d with ≤16, median %v distinct; want 4, 10, 35, 13",
			constant, binary, small, median)
	}
}

// TestCaptureFitDeterministicAcrossWorkerCounts is the worker-invariance
// contract on the capture-shaped fixture, where per-worker engines are
// reused across many trees with heavy bootstrap duplication.
func TestCaptureFitDeterministicAcrossWorkerCounts(t *testing.T) {
	x, y := captureData(1)
	want := ""
	for _, workers := range []int{1, 2, 8} {
		f := New(Config{Trees: 8, MaxDepth: 700, Seed: 11, Workers: workers})
		if err := f.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		got := forestFingerprint(f, x[:500], captureFeatures)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("workers=%d: fingerprint %s, workers=1 gave %s", workers, got, want)
		}
	}
}

// TestCaptureFitTakesBothRegimes replays a capture-shaped fit's splits
// through the scan-regime rule of tree.bestSplitOver — per-value class
// counts for a feature with at most as many distinct values as the node
// has rows, a sorted column otherwise — and requires winning splits from
// both, so the fixture's fit decides its model in each regime.
func TestCaptureFitTakesBothRegimes(t *testing.T) {
	x, y := captureData(1)
	f := New(Config{Trees: 4, MaxDepth: 700, Seed: 1, Workers: 1})
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	levels := make([]int, captureFeatures)
	for j := range levels {
		seen := map[float64]bool{}
		for _, row := range x {
			seen[row[j]] = true
		}
		levels[j] = len(seen)
	}
	pool := &f.flat.pool
	counted, sorted := 0, 0
	var walk func(node int32, rows []int32)
	walk = func(node int32, rows []int32) {
		j := pool.Feature[node]
		if j < 0 {
			return
		}
		if levels[j] <= len(rows) {
			counted++
		} else {
			sorted++
		}
		var left, right []int32
		for _, id := range rows {
			if x[id][j] <= pool.Threshold[node] {
				left = append(left, id)
			} else {
				right = append(right, id)
			}
		}
		walk(pool.Left[node], left)
		walk(pool.Right[node], right)
	}
	boots, _ := f.drawBootstraps(len(x))
	for ti, boot := range boots {
		drawn := make([]bool, len(x))
		for _, id := range boot {
			drawn[id] = true
		}
		var rows []int32 // the view's distinct rows
		for id, ok := range drawn {
			if ok {
				rows = append(rows, int32(id))
			}
		}
		walk(f.flat.roots[ti], rows)
	}
	if counted == 0 || sorted == 0 {
		t.Fatalf("splits chosen by per-value counts: %d, by a sorted column: %d; want both", counted, sorted)
	}
	t.Logf("splits chosen by per-value counts: %d, by a sorted column: %d", counted, sorted)
}
