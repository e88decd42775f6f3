package split

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func randMatrix(rng *rand.Rand, n, d, distinct int) [][]float64 {
	x := make([][]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			if distinct > 0 {
				row[j] = float64(rng.Intn(distinct))
			} else {
				row[j] = rng.NormFloat64()
			}
		}
		x[i] = row
	}
	return x
}

// checkWindow verifies a derived column window: sorted by (value, id),
// values read from col agree with x, and it holds exactly the ids of the
// arena window rows (in some order).
func checkWindow(t *testing.T, x [][]float64, f int, ids []int32, col []float64, rows []int32) {
	t.Helper()
	for k, id := range ids {
		if col[id] != x[id][f] {
			t.Fatalf("f=%d: col[%d]=%v, x says %v", f, id, col[id], x[id][f])
		}
		if k > 0 {
			a, b := ids[k-1], id
			if col[b] < col[a] || (col[b] == col[a] && b < a) {
				t.Fatalf("f=%d: window not (value, id)-sorted at %d", f, k)
			}
		}
	}
	got := slices.Clone(ids)
	slices.Sort(got)
	if !slices.Equal(got, rows) {
		t.Fatalf("f=%d: window ids %v, arena rows %v", f, got, rows)
	}
}

func TestPresortColumnsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, distinct := range []int{0, 1, 3} {
		x := randMatrix(rng, 50, 4, distinct)
		e := NewPresort(x, 1).View(nil, nil)
		for f := 0; f < 4; f++ {
			ids, col := e.Col(f, 0, e.Len())
			checkWindow(t, x, f, ids, col, e.Rows(0, e.Len()))
		}
	}
}

// TestPartitionInvariants grows a few levels by hand, in preorder, and
// checks every derived window against the arena after each split —
// including features first derived deep in the tree (from the presort)
// and features derived from a grandparent's window.
func TestPartitionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randMatrix(rng, 200, 5, 6) // heavy ties
	e := NewPresort(x, 1).View(nil, nil)

	var grow func(lo, hi, depth int)
	grow = func(lo, hi, depth int) {
		// Scan a depth-dependent subset of features, as a forest would.
		for f := depth % 2; f < 5; f += 2 {
			ids, col := e.Col(f, lo, hi)
			checkWindow(t, x, f, ids, col, e.Rows(lo, hi))
		}
		if hi-lo < 8 || depth == 5 {
			return
		}
		f := (depth * 3) % 5
		ids, col := e.Col(f, lo, hi)
		thr := col[ids[(hi-lo)/2]]
		if thr == col[ids[hi-lo-1]] {
			return // no split: everything would go left
		}
		mid := e.Partition(f, thr, lo, hi)
		for k, id := range e.Rows(lo, hi) {
			if left := x[id][f] <= thr; left != (lo+k < mid) {
				t.Fatalf("row %d on the wrong side of %v", id, thr)
			}
			if k > 0 && lo+k != mid && id <= e.Rows(lo, hi)[k-1] {
				t.Fatal("row arena not ascending within a child")
			}
		}
		grow(lo, mid, depth+1)
		grow(mid, hi, depth+1)
	}
	grow(0, e.Len(), 0)
}

// TestPartitionRowArena checks Partition against a naive stable filter of
// the node's rows and the recorded arena positions against the arena.
func TestPartitionRowArena(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randMatrix(rng, 80, 3, 4)
	e := NewPresort(x, 1).View(nil, nil)
	thr := 1.5
	mid := e.Partition(1, thr, 0, 80)
	var want []int32
	for pass := 0; pass < 2; pass++ {
		for id, row := range x {
			if (row[1] <= thr) == (pass == 0) {
				want = append(want, int32(id))
			}
		}
	}
	if got := e.Rows(0, 80); !slices.Equal(got, want) {
		t.Fatalf("arena %v, want %v", got, want)
	}
	for k, id := range want {
		if int(e.pos[id]) != k {
			t.Fatalf("pos[%d] = %d, want %d", id, e.pos[id], k)
		}
	}
	left := 0
	for _, row := range x {
		if row[1] <= thr {
			left++
		}
	}
	if mid != left {
		t.Fatalf("mid = %d, want %d", mid, left)
	}
}

func TestSortedColMatchesCol(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randMatrix(rng, 2*LeafSortCutoff, 3, 5)
	e := NewPresort(x, 1).View(nil, nil)
	mid := e.Partition(0, 2, 0, e.Len())
	for _, w := range [][2]int{{0, mid}, {mid, e.Len()}} {
		for f := 0; f < 3; f++ {
			cids, _ := e.Col(f, w[0], w[1])
			cids = slices.Clone(cids)
			sids, _ := e.SortedCol(f, w[0], w[1])
			if !slices.Equal(cids, sids) {
				t.Fatalf("window %v f=%d: SortedCol %v != Col %v", w, f, sids, cids)
			}
		}
	}
}

func TestSubsetEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randMatrix(rng, 100, 4, 7)
	counts := make([]int32, 100)
	for _, r := range []int{3, 17, 42, 99, 0, 51} {
		counts[r] = 1
	}
	e := NewPresort(x, 1).View(counts, nil)
	if e.Len() != 6 {
		t.Fatalf("subset len %d", e.Len())
	}
	want := []int32{0, 3, 17, 42, 51, 99}
	if got := e.Rows(0, 6); !slices.Equal(got, want) {
		t.Fatalf("subset rows %v, want %v", got, want)
	}
	for f := 0; f < 4; f++ {
		ids, col := e.Col(f, 0, 6)
		checkWindow(t, x, f, ids, col, want)
	}
}

// TestBootstrapEngine checks a counts view against the resample it
// stands for: each root column expanded by the counts is an independent
// sort of the resampled column.
func TestBootstrapEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randMatrix(rng, 60, 3, 4)
	counts := make([]int32, 60)
	boot := make([]int32, 60)
	for i := range boot {
		boot[i] = int32(rng.Intn(60))
		counts[boot[i]]++
	}
	e := NewPresort(x, 1).View(counts, nil)
	distinct := 0
	for _, c := range counts {
		if c > 0 {
			distinct++
		}
	}
	if e.Len() != distinct {
		t.Fatalf("view holds %d rows, bootstrap has %d distinct", e.Len(), distinct)
	}
	for f := 0; f < 3; f++ {
		ids, col := e.Col(f, 0, e.Len())
		var got []float64
		for _, id := range ids {
			for c := int32(0); c < e.Counts()[id]; c++ {
				got = append(got, col[id])
			}
		}
		want := make([]float64, 60)
		for i, r := range boot {
			want[i] = x[r][f]
		}
		sort.Float64s(want)
		if !slices.Equal(got, want) {
			t.Fatalf("f=%d: expanded column %v, want %v", f, got, want)
		}
	}
}

func TestEngineReuseResets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randMatrix(rng, 120, 3, 0)
	p := NewPresort(x, 1)
	counts := make([]int32, 120)
	for i := range counts {
		counts[i] = int32(i % 3)
	}
	e := p.View(counts, nil)
	e.Col(0, 0, e.Len())
	e.Partition(0, 0, 0, e.Len())
	e = p.View(nil, e) // reuse must restore the full view
	if e.Len() != 120 || len(e.frontier) != 0 {
		t.Fatalf("reused engine: len %d, frontier %v", e.Len(), e.frontier)
	}
	for f := 0; f < 3; f++ {
		ids, col := e.Col(f, 0, 120)
		checkWindow(t, x, f, ids, col, e.Rows(0, 120))
	}
}

// codesMatrix mixes the column shapes the value codes must handle:
// continuous, 5 levels, constant, -0 beside +0, NaNs, 200 levels, and
// infinities.
func codesMatrix(rng *rand.Rand, n int) [][]float64 {
	x := make([][]float64, n)
	for i := range x {
		bit := float64(rng.Intn(2))
		if bit == 0 && rng.Intn(2) == 0 {
			bit = math.Copysign(0, -1)
		}
		nan := rng.NormFloat64()
		if rng.Intn(10) == 0 {
			nan = math.NaN()
		}
		x[i] = []float64{
			rng.NormFloat64(), float64(rng.Intn(5)), 3, bit,
			nan, float64(rng.Intn(200)), math.Inf(rng.Intn(3) - 1),
		}
	}
	return x
}

// TestPresortCodes pins the value codes: a coded column's levels are its
// distinct values in ascending order (-0 and +0 are one level), every row's
// code indexes its own value, ClassCounts tallies a counts view's node by
// them, and a column holding a NaN has no codes and sorts its NaNs last.
func TestPresortCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n = 700
	x := codesMatrix(rng, n)
	counts := make([]int32, n)
	y := make([]bool, n)
	for i := range counts {
		counts[i] = int32(rng.Intn(3))
		y[i] = rng.Intn(2) == 0
	}
	p := NewPresort(x, 1)
	e := p.View(counts, nil)
	for f := range x[0] {
		ord := p.order[f*n : (f+1)*n]
		if f == 4 {
			if e.Levels(f) != -1 {
				t.Fatalf("NaN column: %d levels, want -1 (no codes)", e.Levels(f))
			}
			for k := 1; k < n; k++ {
				if a, b := x[ord[k-1]][f], x[ord[k]][f]; a != a && b == b {
					t.Fatalf("NaN column: number %v sorted after a NaN", b)
				}
			}
			continue
		}
		distinct := map[float64]bool{}
		for _, row := range x {
			distinct[row[f]] = true
		}
		lv := p.levels[p.lvOff[f]:p.lvOff[f+1]]
		if e.Levels(f) != len(distinct) || len(lv) != len(distinct) {
			t.Fatalf("f=%d: %d levels (%d values), want %d", f, e.Levels(f), len(lv), len(distinct))
		}
		for k := 1; k < len(lv); k++ {
			if lv[k] <= lv[k-1] {
				t.Fatalf("f=%d: levels not strictly ascending at %d: %v", f, k, lv)
			}
		}
		for id, row := range x {
			if lv[p.codes[f*n+id]] != row[f] {
				t.Fatalf("f=%d id=%d: level %v, value %v", f, id, lv[p.codes[f*n+id]], row[f])
			}
		}
		want := make([]ClassCount, len(lv))
		for _, id := range e.Rows(0, e.Len()) {
			c := &want[p.codes[f*n+int(id)]]
			c.N += counts[id]
			if y[id] {
				c.Pos += counts[id]
			}
		}
		got, vals := e.ClassCounts(f, 0, e.Len(), y)
		if !slices.Equal(got, want) || len(vals) != len(lv) {
			t.Fatalf("f=%d: class counts %v, want %v", f, got, want)
		}
	}
}

// TestPresortSameAtAnyWorkerCount pins the parallel presort: the column
// order, the value codes and the levels are the same, bit for bit, at
// 1, 2 and 8 workers.
func TestPresortSameAtAnyWorkerCount(t *testing.T) {
	x := codesMatrix(rand.New(rand.NewSource(11)), 500)
	want := NewPresort(x, 1)
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, f := range v {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	for _, workers := range []int{2, 8} {
		got := NewPresort(x, workers)
		if !slices.Equal(got.order, want.order) || !slices.Equal(got.codes, want.codes) ||
			!slices.Equal(got.nlev, want.nlev) || !slices.Equal(got.lvOff, want.lvOff) ||
			!slices.Equal(bits(got.levels), bits(want.levels)) || !slices.Equal(bits(got.cols), bits(want.cols)) {
			t.Fatalf("workers=%d: presort differs from the 1-worker presort", workers)
		}
	}
}

// TestPresortOrderMatchesComparisonSort checks the presort's radix order
// against a comparison sort by (value, id) — -0 equal to +0, NaNs above
// every number — on the mixed columns and on raw random bit patterns,
// which bring subnormals, infinities and NaNs of either sign.
func TestPresortOrderMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	raw := make([][]float64, 300)
	for i := range raw {
		raw[i] = []float64{math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64() >> uint(rng.Intn(64)))}
	}
	for _, x := range [][][]float64{codesMatrix(rng, 400), raw} {
		p := NewPresort(x, 2)
		n := len(x)
		for f := range x[0] {
			want := make([]int32, n)
			for i := range want {
				want[i] = int32(i)
			}
			slices.SortStableFunc(want, func(a, b int32) int {
				va, vb := x[a][f], x[b][f]
				switch {
				case after(va, vb):
					return 1
				case after(vb, va):
					return -1
				}
				return 0
			})
			if got := p.order[f*n : (f+1)*n]; !slices.Equal(got, want) {
				t.Fatalf("f=%d: presort order differs from the comparison sort", f)
			}
		}
	}
}
