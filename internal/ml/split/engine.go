// Package split implements the presorted-column split-finding engine
// shared by the CART classifier tree (internal/ml/tree), the random
// forest's member trees (internal/ml/forest) and the gradient-boosting
// regression tree (internal/ml/boost).
//
// A Presort sorts each feature of the training matrix exactly once — a
// stable radix sort on an order-preserving key of the value, at most
// eight O(n) passes per column, the columns spread over the worker pool —
// and keeps the matrix column-major beside it, so every value lookup is
// cols[f][id]. Trees
// then grow from an Engine view of that presort. A view is a vector of
// per-row multiplicities: nil is every row once, 0/1 is a boosting
// subsample, and counts are a forest bootstrap, so a resample is never
// materialized as duplicated rows. Split criteria accumulate counts,
// which is exact: Gini, MinLeaf and majority votes see only integer
// counts, and candidate thresholds sit between distinct values.
//
// Choosing a split partitions only the view's row arena (O(node), ids
// kept ascending) and records each id's arena position. Sorted feature
// columns carry int32 ids only and are derived lazily: when a node scans
// feature f, the engine takes f's innermost sorted range that still holds
// the node — a per-feature stack of [start, end) windows, the pristine
// presort at the bottom — and stably splits it by arena position: rows
// left of the node are finished and dropped, the node's rows become its
// window, and rows right of it fill the windows of the right siblings
// still pending on the path, each kept sorted for the nodes to come. Each
// window is read at most once as a source. A node's scan is then one O(n)
// cumulative pass per candidate feature, nothing is sorted below the
// root, and a random-forest tree touches only the ~√d columns its nodes
// sample instead of re-partitioning all d at every split. Trees that scan
// every feature (plain CART, boosting) derive every column at every node
// and pay what eager partitioning would.
//
// Small nodes skip the columns entirely: at and below LeafSortCutoff
// (weighted) samples, a scan gathers and sorts just the scanned feature
// over the node's rows (SortedCol), which is cache-hot and cheaper than
// deriving a window.
//
// Low-cardinality features skip sorting altogether. While the presort
// walks a column's order it records each row's rank among the column's
// distinct values (its code) and the distinct values themselves, so a
// node whose row count is at least the feature's level count K tallies
// per-level class counts in one pass over its rows (ClassCounts) and a
// scan walks the K levels in ascending order: O(node + K) = O(2·node),
// with no window derived. A column holding a NaN gets no codes and always
// takes a sorted regime, whose scan stops at the NaNs.
//
// All three regimes see the same cumulative counts at the same distinct
// value boundaries and so select identical splits; the crossovers are
// invisible to the fitted model.
package split

import (
	"math"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
)

// LeafSortCutoff is the node size at and below which trees stop reading
// derived feature columns and instead gather + sort each scanned feature
// directly (see package comment). Exported so the tree growers and the
// property tests can exercise both sorted regimes explicitly.
const LeafSortCutoff = 96

// Small reports whether a node of n samples — counted with their
// multiplicities — is in the gather-and-sort regime rather than the
// derived-column regime.
func Small(n int) bool { return n <= LeafSortCutoff }

// KV is a (feature value, row id) pair. All engine orderings sort
// ascending by value with ties broken by ascending id, making every
// ordering — and therefore every cumulative float sum a criterion
// accumulates along it — deterministic. -0 and +0 are one value. A NaN
// sorts above every number, which is the side a split sends it to
// (NaN <= threshold is false), so scans stop at the first NaN: no
// threshold separates it.
type KV struct {
	V  float64
	ID int32
}

// after reports whether a sorts strictly above b by value, NaN above
// every number.
func after(a, b float64) bool { return a > b || (a != a && b == b) }

// nanKey is every NaN's sort key, above +Inf's.
const nanKey = ^uint64(0)

// sortKey maps a value to a uint64 that orders as the value does: -0 and
// +0 share a key and every NaN takes nanKey.
func sortKey(v float64) uint64 {
	switch {
	case v != v:
		return nanKey
	case v == 0:
		return 1 << 63
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b // negative: larger magnitude sorts lower
	}
	return b | 1<<63
}

// radixSort sorts keys ascending, carrying ids along, with a stable
// least-significant-byte radix sort: ids that start ascending end sorted
// by (key, id). A byte every key shares costs no pass. bufK and bufI are
// scratch of the same length.
func radixSort(keys []uint64, ids []int32, bufK []uint64, bufI []int32) {
	var count [8][256]int
	for _, k := range keys {
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	srcK, srcI := keys, ids
	for b := range count {
		c := &count[b]
		if c[byte(srcK[0]>>(8*b))] == len(srcK) {
			continue
		}
		sum := 0
		for v, m := range c {
			c[v] = sum
			sum += m
		}
		for i, k := range srcK {
			at := &c[byte(k>>(8*b))]
			bufK[*at], bufI[*at] = k, srcI[i]
			*at++
		}
		srcK, bufK = bufK, srcK
		srcI, bufI = bufI, srcI
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(ids, srcI)
	}
}

// Presort holds each feature's sample order over a fixed matrix, sorted
// once, the matrix itself column-major, and each column's value codes. It
// is immutable after construction and safe for concurrent use by many
// Engines (one per worker/tree).
type Presort struct {
	n, d  int
	order []int32   // flat d×n: feature f's ids sorted by (value, id)
	cols  []float64 // flat d×n: cols[f*n+id] = x[id][f]
	codes []int32   // flat d×n: rank of cols[f*n+id] among f's distinct values
	// levels holds every column's distinct values in ascending order,
	// feature f's at levels[lvOff[f]:lvOff[f+1]]; nlev[f] is their count
	// K_f, or -1 for a column holding a NaN, which has no codes.
	levels []float64
	lvOff  []int
	nlev   []int
}

// NewPresort sorts every feature column of x, spreading the d columns
// over a pool of workers (0 resolves the process default). Each column
// writes only its own slices, so the presort is the same at any worker
// count. This is the only step of tree induction that sorts.
func NewPresort(x [][]float64, workers int) *Presort {
	n := len(x)
	d := 0
	if n > 0 {
		d = len(x[0])
	}
	p := &Presort{
		n:     n,
		d:     d,
		order: make([]int32, n*d),
		cols:  make([]float64, n*d),
		codes: make([]int32, n*d),
		lvOff: make([]int, d+1),
		nlev:  make([]int, d),
	}
	bufs := make([][]uint64, parallel.Resolve(workers, d))
	ibufs := make([][]int32, len(bufs))
	parallel.ForEachWorker(d, workers, func(w, f int) {
		if bufs[w] == nil {
			bufs[w], ibufs[w] = make([]uint64, 2*n), make([]int32, n)
		}
		p.sortCol(x, f, bufs[w], ibufs[w])
	})
	for f, k := range p.nlev {
		p.lvOff[f+1] = p.lvOff[f] + max(k, 0)
	}
	p.levels = make([]float64, p.lvOff[d])
	for f, k := range p.nlev {
		if k <= 0 {
			continue
		}
		lv, col := p.levels[p.lvOff[f]:p.lvOff[f+1]], p.col(f)
		for id, c := range p.codes[f*n : (f+1)*n] {
			lv[c] = col[id]
		}
	}
	return p
}

// sortCol fills feature f's column, its (value, id) order and its value
// codes, and sets nlev[f]. keys (2n entries) and ids (n) are scratch.
func (p *Presort) sortCol(x [][]float64, f int, keys []uint64, ids []int32) {
	n := p.n
	col, ord := p.col(f), p.order[f*n:(f+1)*n]
	keys, bufK := keys[:n], keys[n:]
	for i, row := range x {
		col[i] = row[f]
		keys[i] = sortKey(row[f])
		ord[i] = int32(i)
	}
	radixSort(keys, ord, bufK, ids)
	if keys[n-1] == nanKey {
		p.nlev[f] = -1 // NaN: no codes
		return
	}
	codes := p.codes[f*n : (f+1)*n]
	k := int32(0)
	for i, id := range ord {
		if i > 0 && keys[i] != keys[i-1] {
			k++
		}
		codes[id] = k
	}
	p.nlev[f] = int(k) + 1
}

// Len returns the number of rows the presort covers.
func (p *Presort) Len() int { return p.n }

// col returns feature f's values indexed by row id.
func (p *Presort) col(f int) []float64 { return p.cols[f*p.n : (f+1)*p.n] }

// span is a [lo, hi) range of a derived column: it holds, sorted by
// (value, id), exactly the ids whose arena position lies in [lo, hi).
type span struct{ lo, hi int32 }

// Engine is one tree's mutable view of a presort: a row arena the tree
// partitions node by node, and lazily derived sorted feature columns.
// Obtain one from Presort.View and reuse it across trees by passing it
// back as `reuse` — all internal buffers are recycled. Row ids are row
// indices of the presorted matrix.
type Engine struct {
	p      *Presort
	n, d   int     // rows in the view (count > 0), features
	counts []int32 // per-row multiplicity, indexed by id
	ones   []int32 // counts of the nil (every row once) view
	rows   []int32 // node-partitioned row arena; ascending id per node
	pos    []int32 // arena position by id; -1 outside the view
	ord    []int32 // flat d×n derived columns, arena-aligned
	stacks [][]span
	// frontier holds the starts of the right siblings still to visit
	// (top = nearest), and owner maps an arena position inside one to
	// that start; cur is a derivation's write cursor per sibling.
	frontier   []int32
	owner, cur []int32
	// nodeBuf and scratch receive a derivation's node and right-side ids;
	// scratch also holds a partition's right side.
	nodeBuf, scratch []int32
	kvBuf            []KV
	smallI           []int32      // SortedCol output buffer
	classBuf         []ClassCount // ClassCounts output buffer
}

// View returns an engine over the rows of the presort weighted by
// counts, one entry per presorted row: counts[id] is row id's
// multiplicity (0 leaves it out), and nil means every row once. A forest bootstrap is its per-row draw counts, a
// boosting subsample its 0/1 membership. counts must stay unchanged
// while the view is in use.
func (p *Presort) View(counts []int32, reuse *Engine) *Engine {
	e := reuse
	if e == nil {
		e = &Engine{}
	}
	e.p, e.d = p, p.d
	if counts == nil {
		if len(e.ones) != p.n {
			e.ones = make([]int32, p.n)
			for i := range e.ones {
				e.ones[i] = 1
			}
		}
		counts = e.ones
	}
	e.counts = counts
	e.pos = growI32(e.pos, p.n)
	e.rows = growI32(e.rows, p.n)
	m := 0
	for id, c := range counts {
		if c > 0 {
			e.pos[id] = int32(m)
			e.rows[m] = int32(id)
			m++
		} else {
			e.pos[id] = -1
		}
	}
	e.n = m
	e.rows = e.rows[:m]
	e.ord = growI32(e.ord, m*p.d)
	e.owner = growI32(e.owner, m)
	e.cur = growI32(e.cur, m)
	e.frontier = e.frontier[:0]
	e.scratch = growI32(e.scratch, p.n+1)
	e.nodeBuf = growI32(e.nodeBuf, p.n+1)
	if cap(e.classBuf) < p.n { // no feature has more than n levels
		e.classBuf = make([]ClassCount, p.n)
	}
	if len(e.stacks) < p.d {
		e.stacks = make([][]span, p.d)
	}
	for f := range e.stacks {
		e.stacks[f] = e.stacks[f][:0] // empty stack: derive from the presort
	}
	return e
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Len returns the number of distinct rows in the view.
func (e *Engine) Len() int { return e.n }

// Features returns the feature dimensionality.
func (e *Engine) Features() int { return e.d }

// Counts returns every row's multiplicity, indexed by id.
func (e *Engine) Counts() []int32 { return e.counts }

// Rows returns the node window's row ids in ascending order.
func (e *Engine) Rows(lo, hi int) []int32 { return e.rows[lo:hi] }

// Col returns feature f's sorted ids over the node window [lo, hi) and
// the feature's values indexed by id. Nodes must be visited in preorder
// (a node before its children, left subtree before right), which is how
// the tree growers recurse: the window is derived from the innermost
// sorted range that still holds the node, in O(range) with no sorting.
func (e *Engine) Col(f, lo, hi int) ([]int32, []float64) {
	ord := e.ord[f*e.n : (f+1)*e.n]
	st := e.stacks[f]
	for len(st) > 0 && int(st[len(st)-1].hi) <= lo {
		st = st[:len(st)-1] // finished subtrees
	}
	var src []int32
	end := e.n
	if len(st) == 0 {
		src = e.p.order[f*e.p.n : (f+1)*e.p.n]
	} else {
		top := st[len(st)-1]
		st = st[:len(st)-1]
		end = int(top.hi)
		if int(top.lo) == lo && end == hi {
			e.stacks[f] = append(st, top)
			return ord[lo:hi], e.p.col(f)
		}
		src = ord[top.lo:end]
	}
	pos, l, h := e.pos, int32(lo), int32(hi)
	node, right := e.nodeBuf[:hi-lo+1], e.scratch[:end-hi+1]
	w, r := splitByPos(src, pos, node, right, l, h)
	copy(ord[lo:hi], node[:w])
	// The right rows fill the pending sibling windows inside [hi, end),
	// each kept sorted: frontier holds their starts, top = hi.
	e.visit(lo)
	fr := e.frontier
	k := len(fr)
	for k > 0 && int(fr[k-1]) < end {
		k--
	}
	buckets := fr[k:]
	if len(buckets) <= 1 {
		copy(ord[hi:end], right[:r])
	} else {
		for _, b := range buckets {
			e.cur[b] = b
		}
		for _, id := range right[:r] {
			b := e.owner[pos[id]]
			ord[e.cur[b]] = id
			e.cur[b]++
		}
	}
	bEnd := int32(end)
	for _, b := range buckets {
		st = append(st, span{b, bEnd})
		bEnd = b
	}
	e.stacks[f] = append(st, span{l, h})
	return ord[lo:hi], e.p.col(f)
}

// splitByPos stably splits src by arena position: ids at [lo, hi) go to
// node, ids at hi and beyond to right, and the rest — finished nodes and
// rows outside the view, at -1 — are dropped. Both buffers have a spare
// slot, so every id is written to both unconditionally and only the
// cursors advance: the loop is branch-free.
func splitByPos(src, pos, node, right []int32, lo, hi int32) (w, r int) {
	width := uint32(hi - lo)
	for _, id := range src {
		p := pos[id]
		node[w] = id
		right[r] = id
		if uint32(p-lo) < width {
			w++
		}
		if p >= hi {
			r++
		}
	}
	return w, r
}

// visit pops the frontier entries a preorder visit of a node starting at
// lo has reached.
func (e *Engine) visit(lo int) {
	fr := e.frontier
	for len(fr) > 0 && int(fr[len(fr)-1]) <= lo {
		fr = fr[:len(fr)-1]
	}
	e.frontier = fr
}

// Partition stably splits the node window [lo, hi) of the row arena into
// ids with x[id][feature] <= threshold followed by the rest, records the
// new arena positions and the right child as a pending sibling, and
// returns the boundary index. Derived columns are untouched: children
// derive theirs when they scan. Cost O(hi-lo), zero allocations.
func (e *Engine) Partition(feature int, threshold float64, lo, hi int) int {
	col := e.p.col(feature)
	rows := e.rows[lo:hi]
	si := e.scratch
	w, r := 0, 0
	for _, id := range rows {
		if col[id] <= threshold {
			rows[w] = id
			w++
		} else {
			si[r] = id
			r++
		}
	}
	copy(rows[w:], si[:r])
	for k, id := range rows {
		e.pos[id] = int32(lo + k)
	}
	mid := lo + w
	e.visit(lo)
	e.frontier = append(e.frontier, int32(mid))
	for p := mid; p < hi; p++ {
		e.owner[p] = int32(mid)
	}
	return mid
}

// SortedCol gathers feature f over the node's rows and sorts it by
// (value, id) — the small-node scan path. It returns the sorted ids and
// the feature's values indexed by id, like Col; the ids are overwritten
// by the next call.
func (e *Engine) SortedCol(f, lo, hi int) ([]int32, []float64) {
	rows := e.rows[lo:hi]
	col := e.p.col(f)
	if cap(e.kvBuf) < len(rows) {
		size := max(len(rows), LeafSortCutoff)
		e.kvBuf, e.smallI = make([]KV, size), make([]int32, size)
	}
	buf := e.kvBuf[:len(rows)]
	for k, id := range rows {
		buf[k] = KV{V: col[id], ID: id}
	}
	// Insertion sort by value is stable and the rows ascend by id, so ties
	// come out by id. At LeafSortCutoff rows it beats a general sort.
	for i := 1; i < len(buf); i++ {
		kv, j := buf[i], i
		for ; j > 0 && after(buf[j-1].V, kv.V); j-- {
			buf[j] = buf[j-1]
		}
		buf[j] = kv
	}
	ids := e.smallI[:len(buf)]
	for k, kv := range buf {
		ids[k] = kv.ID
	}
	return ids, col
}

// Levels returns feature f's number of distinct values K_f, or -1 when
// its column holds a NaN and so has no value codes.
func (e *Engine) Levels(f int) int { return e.p.nlev[f] }

// ClassCount is one distinct value's tally over a node: N samples,
// counted with their multiplicities, Pos of them positive.
type ClassCount struct{ N, Pos int32 }

// ClassCounts tallies the node window [lo, hi) by feature f's value
// codes in one pass over its rows. It returns, index for index, the
// tally of the node's rows holding each of f's distinct values (zero for
// a value absent from the node) and those values in ascending order. Only
// for a feature with codes (Levels(f) >= 0); the tallies are overwritten
// by the next call.
func (e *Engine) ClassCounts(f, lo, hi int, y []bool) ([]ClassCount, []float64) {
	p := e.p
	buf := e.classBuf[:p.nlev[f]]
	clear(buf)
	codes := p.codes[f*p.n : (f+1)*p.n]
	for _, id := range e.rows[lo:hi] {
		b := &buf[codes[id]]
		c := e.counts[id]
		b.N += c
		if y[id] {
			b.Pos += c
		}
	}
	return buf, p.levels[p.lvOff[f]:p.lvOff[f+1]]
}
