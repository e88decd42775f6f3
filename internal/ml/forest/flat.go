package forest

import (
	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml/tree"
)

// flatForest is the compiled serving form of a fitted ensemble: every
// tree's nodes packed into one contiguous structure-of-arrays pool
// (tree.Flat), with per-tree root offsets. All 70 paper-config trees live
// in four parallel slices, so a vote is pure offset-chasing over dense
// memory instead of pointer-chasing across 70 separately allocated node
// graphs. Compiled once at the end of Fit; traversal order is identical to
// the pointer trees, so verdicts and probabilities are bit-identical.
type flatForest struct {
	pool  tree.Flat
	roots []int32
}

// compileFlat packs the fitted trees into one node pool.
func compileFlat(trees []*tree.Tree) *flatForest {
	ff := &flatForest{roots: make([]int32, len(trees))}
	for i, t := range trees {
		ff.roots[i] = t.AppendFlat(&ff.pool)
	}
	return ff
}

// votes counts the trees voting spam for one sample.
func (ff *flatForest) votes(x []float64) int {
	v := 0
	for _, root := range ff.roots {
		if ff.pool.Predict(root, x) {
			v++
		}
	}
	return v
}

// flatBlock is the batch-traversal micro-block: votes are tallied
// tree-major over blocks of this many samples, so one tree's nodes and the
// block's feature rows both stay cache-resident for the whole pass. The
// per-block vote tally fits on the worker's stack.
const flatBlock = 256

// voteBlock tallies per-sample votes for x[lo:hi) tree-major into votes
// (indexed from lo, pre-zeroed, len >= hi-lo).
func (ff *flatForest) voteBlock(x [][]float64, lo, hi int, votes []int32) {
	for _, root := range ff.roots {
		for i := lo; i < hi; i++ {
			if ff.pool.Predict(root, x[i]) {
				votes[i-lo]++
			}
		}
	}
}

// predictRange writes majority verdicts for x[lo:hi) into out, block by
// block. The vote tally lives on the caller's stack, so a single-worker
// batch allocates nothing.
func (ff *flatForest) predictRange(x [][]float64, lo, hi, trees int, out []bool) {
	var votes [flatBlock]int32
	for blo := lo; blo < hi; blo += flatBlock {
		bhi := blo + flatBlock
		if bhi > hi {
			bhi = hi
		}
		clear(votes[:bhi-blo])
		ff.voteBlock(x, blo, bhi, votes[:])
		for i := blo; i < bhi; i++ {
			out[i] = int(votes[i-blo])*2 > trees
		}
	}
}
