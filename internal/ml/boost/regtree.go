package boost

import "github.com/pseudo-honeypot/pseudohoneypot/internal/ml/split"

// regTree is a regression tree fit to gradient/hessian pairs with
// variance-reduction splits and Newton leaf values, as in XGBoost-style
// boosting. Split finding runs on the shared presorted-column engine
// (internal/ml/split): the booster sorts the feature space once per Fit
// and every round's tree grows by stable partitioning, scanning each
// node in a single cumulative-gradient pass per feature. Cumulative sums
// follow the engine's (value, id) order, so they are deterministic and
// bit-identical to the reference scan in regtree_ref_test.go. The
// booster's views hold every sampled row once (0/1 counts), so a node's
// sample count is its window length.
type regTree struct {
	maxDepth int
	minLeaf  int
	root     *regNode
}

type regNode struct {
	feature   int
	threshold float64
	left      *regNode
	right     *regNode
	leaf      bool
	value     float64
}

// fitEngine grows the tree over a prepared engine view; grad and hess
// are indexed by the engine's row ids.
func (t *regTree) fitEngine(e *split.Engine, grad, hess []float64) {
	if e.Len() == 0 {
		t.root = &regNode{leaf: true}
		return
	}
	t.root = t.grow(e, grad, hess, 0, e.Len(), 0)
}

func (t *regTree) predict(x []float64) float64 {
	n := t.root
	if n == nil {
		return 0
	}
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

func (t *regTree) grow(e *split.Engine, grad, hess []float64, lo, hi, depth int) *regNode {
	n := hi - lo
	if depth >= t.maxDepth || n < 2*t.minLeaf {
		return t.leafNode(e, grad, hess, lo, hi)
	}
	feature, threshold, ok := t.bestSplit(e, grad, lo, hi)
	if !ok {
		return t.leafNode(e, grad, hess, lo, hi)
	}
	mid := e.Partition(feature, threshold, lo, hi)
	nd := &regNode{feature: feature, threshold: threshold}
	nd.left = t.grow(e, grad, hess, lo, mid, depth+1)
	nd.right = t.grow(e, grad, hess, mid, hi, depth+1)
	return nd
}

// leafNode takes the Newton step Σg / (Σh + ε), accumulating in
// ascending row-id order (the arena's invariant) for determinism.
func (t *regTree) leafNode(e *split.Engine, grad, hess []float64, lo, hi int) *regNode {
	const eps = 1e-9
	var g, h float64
	for _, id := range e.Rows(lo, hi) {
		g += grad[id]
		h += hess[id]
	}
	return &regNode{leaf: true, value: g / (h + eps)}
}

// bestSplit maximizes the reduction in gradient variance (equivalently the
// gain of the squared-gradient-sum criterion). Candidates that would
// leave a child under MinLeaf are skipped in the scan, so the best
// admissible split is taken instead of collapsing to a leaf.
func (t *regTree) bestSplit(e *split.Engine, grad []float64, lo, hi int) (int, float64, bool) {
	total := hi - lo
	totalG := 0.0
	for _, id := range e.Rows(lo, hi) {
		totalG += grad[id]
	}
	n := float64(total)
	baseScore := totalG * totalG / n

	bestGain := 1e-12
	bestFeature, bestThreshold := -1, 0.0
	small := split.Small(total)
	for f := 0; f < e.Features(); f++ {
		var ids []int32
		var col []float64
		if small {
			ids, col = e.SortedCol(f, lo, hi)
		} else {
			ids, col = e.Col(f, lo, hi)
		}
		thr, gain, ok := t.scanCol(ids, col, grad, totalG, baseScore)
		if ok && gain > bestGain {
			bestGain = gain
			bestFeature = f
			bestThreshold = thr
		}
	}
	if bestFeature < 0 {
		return 0, 0, false
	}
	return bestFeature, bestThreshold, true
}

// scanCol finds one sorted column's best admissible threshold in a
// single cumulative-gradient pass over ids (values col[id]).
func (t *regTree) scanCol(ids []int32, col []float64, grad []float64, totalG, baseScore float64) (float64, float64, bool) {
	total := len(ids)
	n := float64(total)
	best, thr, found := 1e-12, 0.0, false
	leftG := 0.0
	next := col[ids[0]]
	for k := 0; k < total-1; k++ {
		leftG += grad[ids[k]]
		v := next
		next = col[ids[k+1]]
		if v == next {
			continue
		}
		if next != next {
			break // NaNs sort last: no threshold separates them
		}
		leftN := k + 1
		if leftN < t.minLeaf {
			continue
		}
		if total-leftN < t.minLeaf {
			break
		}
		fLeftN := float64(leftN)
		rightG := totalG - leftG
		gain := leftG*leftG/fLeftN + rightG*rightG/(n-fLeftN) - baseScore
		if gain > best {
			best, thr, found = gain, (v+next)/2, true
		}
	}
	return thr, best, found
}
