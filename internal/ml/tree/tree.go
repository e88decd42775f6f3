// Package tree implements a CART-style binary decision tree classifier
// with Gini-impurity splits — the paper's DT baseline and the base learner
// of the random forest.
//
// Split finding runs on the presorted-column engine (internal/ml/split):
// each feature is sorted once per fit, and a node scans each candidate
// feature in one O(n) cumulative-class-count pass in one of three
// regimes. A feature with at most as many distinct values as the node has
// rows is tallied into per-value class counts and walked level by level
// (scanCounts); otherwise the node reads a sorted column derived from
// its ancestors' by stable partitioning, or, at and below
// split.LeafSortCutoff samples, its own rows gathered and sorted
// (scanCol). Nothing is sorted below the root. Rows carry multiplicities
// (a forest bootstrap is a count per row), and every count the criterion,
// MinLeaf and the majority vote see is the sum of them. The legacy
// per-node sort.Slice scan survives in refsplit_test.go as the oracle the
// property tests cross-check against; in exact mode every regime selects
// the bit-identical (feature, threshold) split.
package tree

import (
	"errors"
	"math/rand"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml/split"
)

// Config holds decision-tree hyperparameters.
type Config struct {
	// MaxDepth bounds tree depth; non-positive means unbounded.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 1). The split
	// scan skips candidate thresholds that would violate it, so the
	// best admissible split is taken rather than collapsing to a leaf
	// when the unconstrained best happens to violate it.
	MinLeaf int
	// MaxFeatures is the number of random features considered per split;
	// non-positive means all features (plain CART). The random forest
	// sets this to √d.
	MaxFeatures int
	// Seed drives the per-split feature sampling when MaxFeatures is set.
	Seed int64
	// Bins enables histogram-binned split finding: candidate thresholds
	// are capped at Bins-1 per-feature quantile edges computed once per
	// fit — for large synthetic-world datasets. Non-positive (or 1)
	// keeps the exact scan, whose splits are bit-identical to the
	// legacy implementation.
	Bins int
}

// Tree is a trained decision tree.
type Tree struct {
	cfg   Config
	rng   *rand.Rand
	root  *node
	feats []int // candidate-feature scratch reused across splits
}

type node struct {
	feature   int
	threshold float64
	left      *node
	right     *node
	leaf      bool
	label     bool
	// gain is the sample-weighted Gini decrease of this split, recorded
	// for feature-importance accounting.
	gain float64
}

// New creates an untrained tree.
func New(cfg Config) *Tree {
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	return &Tree{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Fit grows the tree on the samples.
func (t *Tree) Fit(x [][]float64, y []bool) error {
	if len(x) == 0 || len(x) != len(y) {
		return errors.New("tree: empty or mismatched training data")
	}
	// One presort worker: plain trees are fit inside cross-validation's
	// fold fan-out, which already fills the pool.
	return t.FitEngine(split.NewPresort(x, 1).View(nil, nil), y)
}

// FitEngine grows the tree over a prepared engine view — the forest
// path, which shares one presort across every tree's bootstrap view. y
// is indexed by the presorted matrix's rows; each row counts as many
// times as the view's multiplicity for it.
func (t *Tree) FitEngine(e *split.Engine, y []bool) error {
	if e.Len() == 0 {
		return errors.New("tree: empty training data")
	}
	if t.cfg.Bins > 1 {
		e.SetBins(t.cfg.Bins)
	}
	t.root = t.grow(e, y, 0, e.Len(), 0)
	return nil
}

// Predict classifies one sample.
func (t *Tree) Predict(x []float64) bool {
	n := t.root
	if n == nil {
		return false
	}
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.label
}

func (t *Tree) grow(e *split.Engine, y []bool, lo, hi, depth int) *node {
	cnt := e.Counts()
	n, pos := 0, 0
	for _, id := range e.Rows(lo, hi) {
		c := int(cnt[id])
		n += c
		if y[id] {
			pos += c
		}
	}
	majority := pos*2 >= n
	if pos == 0 || pos == n ||
		(t.cfg.MaxDepth > 0 && depth >= t.cfg.MaxDepth) ||
		n < 2*t.cfg.MinLeaf {
		return &node{leaf: true, label: majority}
	}

	feature, threshold, childGini, ok := t.bestSplit(e, y, lo, hi, n, pos)
	if !ok {
		return &node{leaf: true, label: majority}
	}
	mid := e.Partition(feature, threshold, lo, hi)
	parentGini := giniOf(n, pos)
	nd := &node{
		feature:   feature,
		threshold: threshold,
		gain:      (parentGini - childGini) * float64(n),
	}
	nd.left = t.grow(e, y, lo, mid, depth+1)
	nd.right = t.grow(e, y, mid, hi, depth+1)
	return nd
}

// bestSplit finds the (feature, threshold) minimizing weighted Gini
// impurity over the candidate features of a node holding total samples
// (totalPos positive). Following standard random-forest practice, if the
// sampled feature subset yields no valid split the search widens to all
// features before giving up.
func (t *Tree) bestSplit(e *split.Engine, y []bool, lo, hi, total, totalPos int) (int, float64, float64, bool) {
	d := e.Features()
	if f, thr, g, ok := t.bestSplitOver(e, y, lo, hi, total, totalPos, t.candidateFeatures(d)); ok {
		return f, thr, g, true
	}
	if t.cfg.MaxFeatures <= 0 || t.cfg.MaxFeatures >= d {
		return 0, 0, 0, false // already searched everything
	}
	return t.bestSplitOver(e, y, lo, hi, total, totalPos, t.allFeatures(d))
}

// bestSplitOver searches the given features for the best Gini split,
// returning the feature, threshold, and resulting weighted child impurity.
// Features are scanned in order with strict improvement, so ties keep the
// earliest feature and, within a feature, the lowest threshold — the same
// selection the legacy scan made.
func (t *Tree) bestSplitOver(e *split.Engine, y []bool, lo, hi, total, totalPos int, features []int) (int, float64, float64, bool) {
	bestGini := 2.0
	bestFeature, bestThreshold := -1, 0.0
	small := split.Small(total)
	cnt := e.Counts()
	for _, f := range features {
		var thr, g float64
		var ok bool
		switch k := e.Levels(f); {
		case !small && e.Edges(f) != nil:
			ids, col := e.Col(f, lo, hi)
			thr, g, ok = t.scanBinned(ids, col, cnt, e.Edges(f), y, total, totalPos)
		case k >= 0 && k <= hi-lo:
			if k >= 2 { // a constant column has no threshold
				lv, vals := e.ClassCounts(f, lo, hi, y)
				thr, g, ok = t.scanCounts(lv, vals, total, totalPos)
			}
		case small:
			ids, col := e.SortedCol(f, lo, hi)
			thr, g, ok = t.scanCol(ids, col, cnt, y, total, totalPos)
		default:
			ids, col := e.Col(f, lo, hi)
			thr, g, ok = t.scanCol(ids, col, cnt, y, total, totalPos)
		}
		if ok && g < bestGini {
			bestGini = g
			bestFeature = f
			bestThreshold = thr
		}
	}
	if bestFeature < 0 {
		return 0, 0, 0, false
	}
	return bestFeature, bestThreshold, bestGini, true
}

// scanCol finds one sorted column's best admissible threshold: a single
// cumulative-class-count pass over ids (values col[id], multiplicities
// cnt[id]; total samples in all), evaluating Gini only between distinct
// values and skipping candidates that would leave a child under MinLeaf.
func (t *Tree) scanCol(ids []int32, col []float64, cnt []int32, y []bool, total, totalPos int) (float64, float64, bool) {
	minLeaf := t.cfg.MinLeaf
	best, thr, found := 2.0, 0.0, false
	leftN, leftPos := 0, 0
	next := col[ids[0]]
	for k := 0; k < len(ids)-1; k++ {
		id := ids[k]
		c := int(cnt[id])
		leftN += c
		if y[id] {
			leftPos += c
		}
		v := next
		next = col[ids[k+1]]
		if v == next {
			continue // threshold must separate distinct values
		}
		if next != next {
			break // NaNs sort last: no threshold separates them
		}
		if leftN < minLeaf {
			continue
		}
		rightN := total - leftN
		if rightN < minLeaf {
			break // leftN only grows from here
		}
		g := weightedGini(leftN, leftPos, rightN, totalPos-leftPos)
		if g < best {
			best, thr, found = g, (v+next)/2, true
		}
	}
	return thr, best, found
}

// scanCounts is scanCol over per-value class counts (lv[k] tallies the
// node's rows holding vals[k], vals ascending): it walks the levels
// present in the node in order, so every boundary between consecutive
// distinct values sees the cumulative (leftN, leftPos) and the two values
// scanCol sees there, and it applies the same rules.
func (t *Tree) scanCounts(lv []split.ClassCount, vals []float64, total, totalPos int) (float64, float64, bool) {
	minLeaf := t.cfg.MinLeaf
	best, thr, found := 2.0, 0.0, false
	leftN, leftPos := 0, 0
	prev := -1 // last level present so far
	for k, c := range lv {
		if c.N == 0 {
			continue
		}
		if prev >= 0 && leftN >= minLeaf {
			rightN := total - leftN
			if rightN < minLeaf {
				break // leftN only grows from here
			}
			g := weightedGini(leftN, leftPos, rightN, totalPos-leftPos)
			if g < best {
				best, thr, found = g, (vals[prev]+vals[k])/2, true
			}
		}
		leftN += int(c.N)
		leftPos += int(c.Pos)
		prev = k
	}
	return thr, best, found
}

// scanBinned evaluates only the precomputed quantile edges: the same
// cumulative pass, with Gini computed at most once per bin boundary.
func (t *Tree) scanBinned(ids []int32, col []float64, cnt []int32, edges []float64, y []bool, total, totalPos int) (float64, float64, bool) {
	minLeaf := t.cfg.MinLeaf
	best, thr, found := 2.0, 0.0, false
	leftN, leftPos := 0, 0
	k := 0
	for _, edge := range edges {
		for k < len(ids) && col[ids[k]] <= edge {
			c := int(cnt[ids[k]])
			leftN += c
			if y[ids[k]] {
				leftPos += c
			}
			k++
		}
		if leftN == 0 {
			continue
		}
		if leftN >= total {
			break
		}
		if leftN < minLeaf {
			continue
		}
		rightN := total - leftN
		if rightN < minLeaf {
			break
		}
		g := weightedGini(leftN, leftPos, rightN, totalPos-leftPos)
		if g < best {
			best, thr, found = g, edge, true
		}
	}
	return thr, best, found
}

// candidateFeatures returns the feature indices to consider for a split.
func (t *Tree) candidateFeatures(d int) []int {
	if t.cfg.MaxFeatures <= 0 || t.cfg.MaxFeatures >= d {
		return t.allFeatures(d)
	}
	// Partial Fisher–Yates over [0, d).
	perm := t.featureBuf(d)
	for i := 0; i < t.cfg.MaxFeatures; i++ {
		j := i + t.rng.Intn(d-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:t.cfg.MaxFeatures]
}

func (t *Tree) allFeatures(d int) []int { return t.featureBuf(d) }

// featureBuf returns the reusable [0, d) identity permutation.
func (t *Tree) featureBuf(d int) []int {
	if cap(t.feats) < d {
		t.feats = make([]int, d)
	}
	t.feats = t.feats[:d]
	for i := range t.feats {
		t.feats[i] = i
	}
	return t.feats
}

func weightedGini(leftN, leftPos, rightN, rightPos int) float64 {
	total := float64(leftN + rightN)
	return float64(leftN)/total*giniOf(leftN, leftPos) +
		float64(rightN)/total*giniOf(rightN, rightPos)
}

// giniOf is the binary Gini impurity of a node with n samples, pos positive.
func giniOf(n, pos int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}
