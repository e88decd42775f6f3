package tree

import "sort"

// This file preserves the pre-presort induction path — gather and
// sort.Slice every candidate feature at every node, O(d·n·log n) per
// node. It is the oracle the property tests cross-check the presorted
// engine against and the baseline BenchmarkTreeFit measures its speedup
// over. The only change from the original is the MinLeaf guard moving
// into the scan, mirroring the engine's semantics so the two stay
// comparable at any MinLeaf, and NaNs sorting last with no threshold next
// to them, as in the engine.

// fitRef is Fit on the reference scan, for non-empty x.
func (t *Tree) fitRef(x [][]float64, y []bool) {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.growRef(x, y, idx, 0)
}

func (t *Tree) growRef(x [][]float64, y []bool, idx []int, depth int) *node {
	pos := 0
	for _, i := range idx {
		if y[i] {
			pos++
		}
	}
	majority := pos*2 >= len(idx)
	if pos == 0 || pos == len(idx) ||
		(t.cfg.MaxDepth > 0 && depth >= t.cfg.MaxDepth) ||
		len(idx) < 2*t.cfg.MinLeaf {
		return &node{leaf: true, label: majority}
	}

	feature, threshold, childGini, ok := t.bestSplitRef(x, y, idx)
	if !ok {
		return &node{leaf: true, label: majority}
	}
	var left, right []int
	for _, i := range idx {
		if x[i][feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	parentGini := giniOf(len(idx), pos)
	nd := &node{
		feature:   feature,
		threshold: threshold,
		gain:      (parentGini - childGini) * float64(len(idx)),
	}
	nd.left = t.growRef(x, y, left, depth+1)
	nd.right = t.growRef(x, y, right, depth+1)
	return nd
}

func (t *Tree) bestSplitRef(x [][]float64, y []bool, idx []int) (int, float64, float64, bool) {
	d := len(x[0])
	if f, thr, g, ok := t.bestSplitOverRef(x, y, idx, t.candidateFeatures(d)); ok {
		return f, thr, g, true
	}
	if t.cfg.MaxFeatures <= 0 || t.cfg.MaxFeatures >= d {
		return 0, 0, 0, false // already searched everything
	}
	return t.bestSplitOverRef(x, y, idx, t.allFeatures(d))
}

func (t *Tree) bestSplitOverRef(x [][]float64, y []bool, idx []int, features []int) (int, float64, float64, bool) {
	bestGini := 2.0
	bestFeature, bestThreshold := -1, 0.0

	// Scratch reused across features.
	type pair struct {
		v   float64
		pos bool
	}
	pairs := make([]pair, len(idx))

	total := len(idx)
	totalPos := 0
	for _, i := range idx {
		if y[i] {
			totalPos++
		}
	}
	minLeaf := t.cfg.MinLeaf

	for _, f := range features {
		for k, i := range idx {
			pairs[k] = pair{v: x[i][f], pos: y[i]}
		}
		sort.Slice(pairs, func(a, b int) bool {
			va, vb := pairs[a].v, pairs[b].v
			return va < vb || (va == va && vb != vb) // NaN last
		})

		leftN, leftPos := 0, 0
		for k := 0; k < total-1; k++ {
			leftN++
			if pairs[k].pos {
				leftPos++
			}
			if pairs[k].v == pairs[k+1].v {
				continue // threshold must separate distinct values
			}
			if pairs[k+1].v != pairs[k+1].v {
				break // no threshold separates the NaNs
			}
			if leftN < minLeaf {
				continue
			}
			rightN := total - leftN
			if rightN < minLeaf {
				break
			}
			rightPos := totalPos - leftPos
			gini := weightedGini(leftN, leftPos, rightN, rightPos)
			if gini < bestGini {
				bestGini = gini
				bestFeature = f
				bestThreshold = (pairs[k].v + pairs[k+1].v) / 2
			}
		}
	}
	if bestFeature < 0 {
		return 0, 0, 0, false
	}
	return bestFeature, bestThreshold, bestGini, true
}
