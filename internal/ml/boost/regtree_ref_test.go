package boost

import "sort"

// This file preserves the pre-presort regression-tree induction path —
// gather and sort.Slice every feature at every node — as the oracle the
// property test cross-checks the engine against and the baseline
// BenchmarkBoostFit measures its speedup over. Two deliberate alignments
// with the engine path keep the two bit-comparable: ties sort by original
// index (so cumulative gradient sums accumulate in the same order as the
// engine's stable columns), and the MinLeaf guard sits inside the scan.

// fitRef is Fit with every round's tree grown on the reference scan, for
// non-empty x.
func (b *Boost) fitRef(x [][]float64, y []bool) {
	b.fitRounds(x, y, func(t *regTree, idx []int, grad, hess []float64) {
		t.fitRef(x, grad, hess, idx)
	})
}

func (t *regTree) fitRef(x [][]float64, grad, hess []float64, idx []int) {
	t.root = t.growRef(x, grad, hess, idx, 0)
}

func (t *regTree) growRef(x [][]float64, grad, hess []float64, idx []int, depth int) *regNode {
	if depth >= t.maxDepth || len(idx) < 2*t.minLeaf {
		return t.leafNodeRef(grad, hess, idx)
	}
	feature, threshold, ok := t.bestSplitRef(x, grad, idx)
	if !ok {
		return t.leafNodeRef(grad, hess, idx)
	}
	var left, right []int
	for _, i := range idx {
		if x[i][feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	nd := &regNode{feature: feature, threshold: threshold}
	nd.left = t.growRef(x, grad, hess, left, depth+1)
	nd.right = t.growRef(x, grad, hess, right, depth+1)
	return nd
}

func (t *regTree) leafNodeRef(grad, hess []float64, idx []int) *regNode {
	const eps = 1e-9
	var g, h float64
	for _, i := range idx {
		g += grad[i]
		h += hess[i]
	}
	return &regNode{leaf: true, value: g / (h + eps)}
}

func (t *regTree) bestSplitRef(x [][]float64, grad []float64, idx []int) (int, float64, bool) {
	if len(idx) == 0 {
		return 0, 0, false
	}
	d := len(x[0])
	type pair struct {
		v, g float64
		id   int
	}
	pairs := make([]pair, len(idx))

	totalG := 0.0
	for _, i := range idx {
		totalG += grad[i]
	}
	n := float64(len(idx))
	baseScore := totalG * totalG / n

	bestGain := 1e-12
	bestFeature, bestThreshold := -1, 0.0
	for f := 0; f < d; f++ {
		for k, i := range idx {
			pairs[k] = pair{v: x[i][f], g: grad[i], id: i}
		}
		sort.Slice(pairs, func(a, b int) bool {
			if pairs[a].v != pairs[b].v {
				return pairs[a].v < pairs[b].v
			}
			return pairs[a].id < pairs[b].id
		})
		leftG := 0.0
		for k := 0; k < len(pairs)-1; k++ {
			leftG += pairs[k].g
			if pairs[k].v == pairs[k+1].v {
				continue
			}
			if k+1 < t.minLeaf {
				continue
			}
			if len(pairs)-k-1 < t.minLeaf {
				break
			}
			leftN := float64(k + 1)
			rightN := n - leftN
			rightG := totalG - leftG
			gain := leftG*leftG/leftN + rightG*rightG/rightN - baseScore
			if gain > bestGain {
				bestGain = gain
				bestFeature = f
				bestThreshold = (pairs[k].v + pairs[k+1].v) / 2
			}
		}
	}
	if bestFeature < 0 {
		return 0, 0, false
	}
	return bestFeature, bestThreshold, true
}
