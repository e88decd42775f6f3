package tree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml/split"
)

// TestCountScanMatchesScanCol is the direct exactness check of the
// per-value counts regime: on the same node of the same counts view,
// scanCounts over ClassCounts must return scanCol's threshold, Gini and
// verdict over the node's sorted window, bit for bit. Multiplicities are
// random (0 drops a row), MinLeaf is 1, 3 or 8, and the column takes 1,
// 2 or one value per row; its values include -0 beside +0 (one level,
// either may stand for it) and both infinities. Each node is checked at
// the root and at both children of a split on another column.
func TestCountScanMatchesScanCol(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pool := []float64{math.Inf(-1), -3.5, -1, math.Copysign(0, -1), 0, 0.25, 2, 1e300, math.Inf(1)}
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(150)
		for _, levels := range []int{1, 2, n} {
			values := make([]float64, levels)
			for k := range values {
				if levels <= len(pool) && rng.Intn(2) == 0 {
					values[k] = pool[rng.Intn(len(pool))]
				} else {
					values[k] = math.Round(rng.NormFloat64()*1e3) / 8
				}
			}
			x := make([][]float64, n)
			y := make([]bool, n)
			counts := make([]int32, n)
			for i := range x {
				v := values[rng.Intn(levels)]
				if levels == n {
					v = values[i]
				}
				x[i] = []float64{v, rng.NormFloat64()}
				y[i] = rng.Intn(3) == 0
				counts[i] = int32(rng.Intn(4))
			}
			counts[rng.Intn(n)] = 1 + int32(rng.Intn(3)) // a non-empty view
			e := split.NewPresort(x, 1).View(counts, nil)
			for _, minLeaf := range []int{1, 3, 8} {
				tr := New(Config{MinLeaf: minLeaf})
				name := fmt.Sprintf("trial=%d n=%d levels=%d minLeaf=%d", trial, n, levels, minLeaf)
				e = split.NewPresort(x, 1).View(counts, e)
				checkCountScan(t, name+" root", tr, e, y, 0, e.Len())
				mid := e.Partition(1, 0, 0, e.Len())
				checkCountScan(t, name+" left", tr, e, y, 0, mid)
				checkCountScan(t, name+" right", tr, e, y, mid, e.Len())
			}
		}
	}
}

// checkCountScan compares the two exact scans of feature 0 over the node
// window [lo, hi); an empty window has nothing to scan.
func checkCountScan(t *testing.T, name string, tr *Tree, e *split.Engine, y []bool, lo, hi int) {
	t.Helper()
	if lo == hi {
		return
	}
	cnt := e.Counts()
	total, totalPos := 0, 0
	for _, id := range e.Rows(lo, hi) {
		total += int(cnt[id])
		if y[id] {
			totalPos += int(cnt[id])
		}
	}
	ids, col := e.Col(0, lo, hi)
	wantThr, wantG, wantOK := tr.scanCol(ids, col, cnt, y, total, totalPos)
	lv, vals := e.ClassCounts(0, lo, hi, y)
	thr, g, ok := tr.scanCounts(lv, vals, total, totalPos)
	if ok != wantOK || math.Float64bits(thr) != math.Float64bits(wantThr) ||
		math.Float64bits(g) != math.Float64bits(wantG) {
		t.Fatalf("%s: counts scan (%v, %v, %v), sorted scan (%v, %v, %v)",
			name, thr, g, ok, wantThr, wantG, wantOK)
	}
}

// TestScanAllocFree pins the split scan's steady-state allocations at
// zero in each exact regime: once the per-worker engine has been warmed
// by a first scan, scanning a node by per-value counts, by a derived
// sorted window or by a gathered, sorted small node allocates nothing.
// The counts buffer therefore lives in the reused engine, not per tree.
func TestScanAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 600
	x := make([][]float64, n)
	y := make([]bool, n)
	for i := range x {
		x[i] = []float64{float64(rng.Intn(12)), rng.NormFloat64()}
		y[i] = x[i][0]+x[i][1] > 6
	}
	e := split.NewPresort(x, 1).View(nil, nil)
	tr := New(Config{})
	small := split.LeafSortCutoff / 2
	for _, c := range []struct {
		name    string
		feature int
		hi      int
	}{
		{"counts", 0, n},    // 12 levels ≤ 600 rows
		{"derived", 1, n},   // 600 levels: a derived sorted window
		{"small", 1, small}, // the node's rows gathered and sorted
		{"counts-small", 0, small},
	} {
		total, totalPos := c.hi, 0
		for _, id := range e.Rows(0, c.hi) {
			if y[id] {
				totalPos++
			}
		}
		features := []int{c.feature}
		tr.bestSplitOver(e, y, 0, c.hi, total, totalPos, features) // warm
		if a := testing.AllocsPerRun(50, func() {
			tr.bestSplitOver(e, y, 0, c.hi, total, totalPos, features)
		}); a != 0 {
			t.Fatalf("%s: scanning a node allocates %v/op, want 0", c.name, a)
		}
	}
}
