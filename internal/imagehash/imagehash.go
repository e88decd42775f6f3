// Package imagehash implements the dHash (difference hash) perceptual image
// hashing the paper uses to cluster spam-campaign profile images
// (paper §IV-B): reduce the image to a 9×9 grayscale thumbnail, compare
// adjacent pixels horizontally and vertically to obtain two 64-bit values,
// and concatenate them into a 128-bit hash compared under Hamming distance.
//
// Because real profile images are gated behind the Twitter API, the package
// also provides a deterministic synthetic profile-image generator: campaign
// accounts share a base pattern perturbed by per-account noise, which keeps
// their hashes within the paper's Hamming threshold while unrelated images
// land far apart.
package imagehash

import (
	"fmt"
	"math/bits"
	"math/rand"
)

const (
	// thumbSize is the reduced thumbnail edge length used by dHash.
	// A 9×9 grid yields 8 comparisons per row/column, i.e. 64 bits per
	// direction.
	thumbSize = 9

	// DefaultThreshold is the paper's Hamming-distance grouping threshold.
	DefaultThreshold = 5
)

// Hash is a 128-bit dHash: Hi holds the horizontal-difference bits and Lo
// the vertical-difference bits.
type Hash struct {
	Hi uint64 `json:"hi"`
	Lo uint64 `json:"lo"`
}

// String renders the hash as 32 hex digits.
func (h Hash) String() string {
	return fmt.Sprintf("%016x%016x", h.Hi, h.Lo)
}

// Distance returns the Hamming distance between h and other.
func (h Hash) Distance(other Hash) int {
	return bits.OnesCount64(h.Hi^other.Hi) + bits.OnesCount64(h.Lo^other.Lo)
}

// Image is a grayscale raster. Pixels are row-major, one byte per pixel.
type Image struct {
	W, H int
	Pix  []uint8
}

// NewImage allocates a w×h black image.
func NewImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		return &Image{}
	}
	return &Image{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x, y); out-of-range coordinates read as 0.
func (m *Image) At(x, y int) uint8 {
	if x < 0 || y < 0 || x >= m.W || y >= m.H {
		return 0
	}
	return m.Pix[y*m.W+x]
}

// Set writes the pixel at (x, y); out-of-range coordinates are ignored.
func (m *Image) Set(x, y int, v uint8) {
	if x < 0 || y < 0 || x >= m.W || y >= m.H {
		return
	}
	m.Pix[y*m.W+x] = v
}

// DHash computes the 128-bit difference hash of m.
//
// The image is first reduced to a 9×9 grayscale thumbnail by box-averaging
// (removing high frequencies, as the paper describes), then hashed by
// dhashThumb.
func DHash(m *Image) Hash {
	var t thumbnail
	reduceInto(m, t[:], thumbSize, thumbSize)
	return dhashThumb(&t)
}

// thumbnail is a row-major 9×9 grayscale grid: what DHash reduces an image
// to, and the block levels an avatar is painted from.
type thumbnail [thumbSize * thumbSize]uint8

// dhashThumb hashes a thumbnail. Horizontally, each pixel is compared
// with its right neighbour (1 if greater); vertically, with the pixel
// below. Each direction keeps its first 64 comparisons in row-major
// order, the first in the top bit: the horizontal ones of rows 0–7, and
// the vertical ones of rows 0–6 plus the first of row 7. The other 8 of
// each direction's 72 never fit the word.
func dhashThumb(t *thumbnail) Hash {
	var hi, lo uint64
	for y := 0; y < 8; y++ {
		for x := 0; x+1 < thumbSize; x++ {
			hi = hi<<1 | greater(t[y*thumbSize+x], t[y*thumbSize+x+1])
		}
	}
	for i := 0; i < 64; i++ {
		lo = lo<<1 | greater(t[i], t[i+thumbSize])
	}
	return Hash{Hi: hi, Lo: lo}
}

// greater is 1 if a > b and 0 otherwise, without a branch: a random
// avatar's comparisons are coin flips a branch predictor cannot learn.
func greater(a, b uint8) uint64 {
	return (uint64(b) - uint64(a)) >> 63
}

// reduce box-averages m down to a new w×h thumbnail.
func reduce(m *Image, w, h int) *Image {
	out := NewImage(w, h)
	reduceInto(m, out.Pix, w, h)
	return out
}

// reduceInto box-averages m down to a w×h thumbnail written row-major
// into dst (len w*h). Every element of dst is written.
func reduceInto(m *Image, dst []uint8, w, h int) {
	if m.W == 0 || m.H == 0 {
		clear(dst)
		return
	}
	// Every box is non-empty: y0 < m.H, so y0+1 <= m.H (likewise x).
	for ty := 0; ty < h; ty++ {
		y0, y1 := ty*m.H/h, (ty+1)*m.H/h
		if y1 <= y0 {
			y1 = y0 + 1
		}
		for tx := 0; tx < w; tx++ {
			x0, x1 := tx*m.W/w, (tx+1)*m.W/w
			if x1 <= x0 {
				x1 = x0 + 1
			}
			sum := 0
			for y := y0; y < y1; y++ {
				for _, p := range m.Pix[y*m.W+x0 : y*m.W+x1] {
					sum += int(p)
				}
			}
			dst[ty*w+tx] = uint8(sum / ((y1 - y0) * (x1 - x0)))
		}
	}
}

// avatarSize is the edge length of a synthetic avatar: 9×9 blocks of
// 4×4 pixels.
const avatarSize = 36

// avatarLevels are the quantized gray levels avatar blocks draw from.
var avatarLevels = [...]uint8{0, 60, 120, 180, 240}

// drawLevels fills g from rng's next 81 draws, one level per block.
func drawLevels(g *thumbnail, rng *rand.Rand) {
	for i := range g {
		g[i] = avatarLevels[rng.Intn(len(avatarLevels))]
	}
}

// paintLevels paints every pixel of the avatarSize×avatarSize image m,
// block (cx, cy) in level g[cy*9+cx].
func paintLevels(m *Image, g *thumbnail) {
	const cell = avatarSize / thumbSize
	for y := 0; y < avatarSize; y++ {
		row := m.Pix[y*avatarSize : (y+1)*avatarSize]
		levels := g[y/cell*thumbSize : (y/cell+1)*thumbSize]
		for x := range row {
			row[x] = levels[x/cell]
		}
	}
}

// Synthesizer renders deterministic 36×36 grayscale profile images into
// reused storage, so a long run of avatars allocates nothing. Its
// generator is lazySource, which draws math/rand's sequence for a seed
// without filling the whole 607-word state, so re-seeding per avatar
// costs about what the avatar's 81 draws do. DHash hashes an avatar
// from its 9×9 block levels without painting it; Synthesize paints the
// pixels for callers that transform them (pHash, re-upload mutations).
// It is not safe for concurrent use; a worker pool keeps one per worker.
type Synthesizer struct {
	src  lazySource
	rng  *rand.Rand
	grid thumbnail
	img  *Image
}

// NewSynthesizer returns a Synthesizer with its generator and image
// allocated.
func NewSynthesizer() *Synthesizer {
	s := &Synthesizer{img: NewImage(avatarSize, avatarSize)}
	s.src.Seed(0)
	s.rng = rand.New(&s.src)
	return s
}

// draw fills s.grid with the block levels of the avatar for seed.
func (s *Synthesizer) draw(seed int64) {
	s.rng.Seed(seed)
	drawLevels(&s.grid, s.rng)
}

// Synthesize paints the avatar for seed: a 9×9 grid of high-contrast
// quantized blocks (an identicon-like avatar). The same seed always paints
// the same image; different seeds yield images whose dHashes are far apart
// with high probability. The quantized levels are spaced wider than a
// campaign Edit's amplitude, so a localized edit never flips comparisons
// between unequal blocks. The image is s's own and is overwritten by the
// next call; callers may edit it in place until then.
func (s *Synthesizer) Synthesize(seed int64) *Image {
	s.draw(seed)
	paintLevels(s.img, &s.grid)
	return s.img
}

// DHash returns DHash of the avatar for seed with e applied, without
// painting it. The avatar is constant on exactly the 4×4 boxes DHash
// averages into its 9×9 thumbnail, and e shifts and clamps exactly one of
// them, so the thumbnail is the drawn levels with e's cell shifted.
func (s *Synthesizer) DHash(seed int64, e Edit) Hash {
	s.draw(seed)
	if e.inGrid() {
		c := &s.grid[e.TY*thumbSize+e.TX]
		*c = clampByte(float64(int(*c) + e.Delta))
	}
	return dhashThumb(&s.grid)
}

// Edit is one campaign-style avatar edit: every pixel that reduce()
// averages into thumbnail cell (TX, TY) is shifted by Delta and clamped.
// It models the badge/recolor edits spam campaigns apply to a shared base
// image (real campaign variants are byte-identical outside the edit).
// Because the edit touches exactly one of the 9×9 thumbnail cells, the
// variant's dHash differs from the base in at most 4 bits — always within
// DefaultThreshold — while unrelated images remain far apart. The zero
// Edit, and an Edit whose cell lies outside the 9×9 grid, change nothing.
type Edit struct {
	TX, TY, Delta int
}

// DrawEdit draws an edit at the given amplitude: a cell and a shift of
// 1..amplitude in either direction, four rng draws in all.
// Amplitude ≤ 0 draws nothing and returns the zero Edit.
func DrawEdit(amplitude int, rng *rand.Rand) Edit {
	if amplitude <= 0 {
		return Edit{}
	}
	tx := rng.Intn(thumbSize)
	ty := rng.Intn(thumbSize)
	delta := rng.Intn(amplitude) + 1
	if rng.Intn(2) == 0 {
		delta = -delta
	}
	return Edit{TX: tx, TY: ty, Delta: delta}
}

// Apply performs e on m in place.
func (e Edit) Apply(m *Image) {
	if !e.inGrid() || e.Delta == 0 || m.W == 0 || m.H == 0 {
		return
	}
	x0, x1 := e.TX*m.W/thumbSize, (e.TX+1)*m.W/thumbSize
	y0, y1 := e.TY*m.H/thumbSize, (e.TY+1)*m.H/thumbSize
	for y := y0; y < y1 && y < m.H; y++ {
		for x := x0; x < x1 && x < m.W; x++ {
			m.Pix[y*m.W+x] = clampByte(float64(int(m.Pix[y*m.W+x]) + e.Delta))
		}
	}
}

// inGrid reports whether e's cell is one of the 9×9 thumbnail cells.
func (e Edit) inGrid() bool {
	return e.TX >= 0 && e.TY >= 0 && e.TX < thumbSize && e.TY < thumbSize
}

func clampByte(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// Grouper clusters hashes whose Hamming distance to a group representative
// is at most the threshold t, assigning each hash to the lowest-numbered
// such group, as a linear scan of the representatives would: the paper's
// image-clustering step. Groups are identified by small integer ids.
//
// The scan is exact multi-index hashing ("Fast Search in Hamming Space
// with Multi-Index Hashing", Norouzi, Punjani and Fleet, CVPR 2012): the
// 128 bits are cut into t+1 disjoint blocks, and by pigeonhole a
// representative within distance t equals the query on at least one
// block. One exact-match table per block lists the representatives by
// block value, so Add checks the full distance only of those that share a
// block with the query, not of every representative.
type Grouper struct {
	threshold int
	reps      []Hash
	// blocks is the layout of the t+1 blocks; at a threshold of 128 or
	// more it is empty, since every hash is then within it of rep 0.
	blocks []block
	// heads[b] maps a block-b value to the newest rep with it, and
	// next[id*len(blocks)+b] is the rep added to that bucket before id,
	// -1 when id was the first: each bucket is a chain of descending ids.
	heads []map[uint64]int32
	next  []int32
	// checks counts full-distance checks made by Add.
	checks int
}

// block is a run of n bits (1 ≤ n ≤ 64) of a hash, starting off bits
// from the top of Hi; bits 64 to 127 are Lo's.
type block struct{ off, n uint }

// value returns the block's bits of h as an integer.
func (bl block) value(h Hash) uint64 {
	var w uint64 // the 64 bits from off on, the block's at the top
	if bl.off < 64 {
		w = h.Hi<<bl.off | h.Lo>>(64-bl.off)
	} else {
		w = h.Lo << (bl.off - 64)
	}
	return w >> (64 - bl.n)
}

// NewGrouper returns a Grouper with the given Hamming threshold; a
// non-positive threshold uses DefaultThreshold.
func NewGrouper(threshold int) *Grouper {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	g := &Grouper{threshold: threshold}
	if threshold < 128 {
		// 128 bits in t+1 blocks, the first 128 mod (t+1) one bit longer.
		m := uint(threshold + 1)
		off := uint(0)
		for i := uint(0); i < m; i++ {
			n := 128 / m
			if i < 128%m {
				n++
			}
			g.blocks = append(g.blocks, block{off, n})
			off += n
		}
	}
	g.heads = make([]map[uint64]int32, len(g.blocks))
	for i := range g.heads {
		g.heads[i] = make(map[uint64]int32)
	}
	return g
}

// Add assigns h to an existing group within the threshold or creates a new
// group, returning the group id. When several representatives are within
// the threshold, the lowest group id wins. Beyond the amortized growth of
// its tables Add allocates nothing.
func (g *Grouper) Add(h Hash) int {
	if id := g.find(h); id >= 0 {
		return id
	}
	g.push(h)
	return len(g.reps) - 1
}

// find returns the lowest id of a representative within the threshold of
// h, or -1.
func (g *Grouper) find(h Hash) int {
	if len(g.blocks) == 0 {
		if len(g.reps) > 0 {
			return 0
		}
		return -1
	}
	best := int32(len(g.reps))
	for b, bl := range g.blocks {
		id, ok := g.heads[b][bl.value(h)]
		if !ok {
			continue
		}
		for ; id >= 0; id = g.next[int(id)*len(g.blocks)+b] {
			if id >= best {
				continue // no better than a match already found
			}
			g.checks++
			if g.reps[id].Distance(h) <= g.threshold {
				best = id
			}
		}
	}
	if int(best) == len(g.reps) {
		return -1
	}
	return int(best)
}

// push appends h as a new representative and links it into every block's
// table.
func (g *Grouper) push(h Hash) {
	id := int32(len(g.reps))
	g.reps = append(g.reps, h)
	for b, bl := range g.blocks {
		v := bl.value(h)
		prev, ok := g.heads[b][v]
		if !ok {
			prev = -1
		}
		g.next = append(g.next, prev)
		g.heads[b][v] = id
	}
}

// Checks returns how many full-distance checks Add has made so far: the
// work its block tables leave, where a linear scan would check every
// representative.
func (g *Grouper) Checks() int { return g.checks }

// Len returns the number of groups formed so far.
func (g *Grouper) Len() int { return len(g.reps) }

// Reps returns a copy of the group representatives in group-id order, for
// checkpointing. Restoring the same slice via SetReps reproduces identical
// group assignments for subsequent Add calls.
func (g *Grouper) Reps() []Hash {
	out := make([]Hash, len(g.reps))
	copy(out, g.reps)
	return out
}

// SetReps replaces the representative list, discarding any current groups,
// and rebuilds the block tables from it. It is the restore half of Reps
// and is intended for crash recovery.
func (g *Grouper) SetReps(reps []Hash) {
	g.reps = g.reps[:0:0]
	g.next = g.next[:0:0]
	for b := range g.heads {
		g.heads[b] = make(map[uint64]int32)
	}
	for _, h := range reps {
		g.push(h)
	}
}
