// Package minhash implements MinHash signatures over character-shingle sets
// and an LSH banding index over them. The labeling pipeline uses both to
// find near-duplicate user descriptions and near-duplicate tweet contents
// (paper §IV-B): two texts are considered identical when enough of the
// minimum hash values of their tri-gram shinglings agree, and the banding
// index generates the candidate pairs so no corpus is compared all-to-all.
package minhash

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"unicode/utf8"
)

// Signature is a fixed-length vector of minimum hash values.
type Signature []uint64

// Scheme holds the per-permutation hash parameters for computing
// signatures. All signatures compared against each other must come from the
// same Scheme.
type Scheme struct {
	// a8[i] is permutation i's multiplier a shifted left by 3 (see
	// permute), b[i] its offset.
	a8, b []uint64
}

const _mersenne61 = (1 << 61) - 1

// NewScheme creates a Scheme with n hash permutations drawn from rng.
// n must be positive; values below 1 are raised to 1.
func NewScheme(n int, rng *rand.Rand) *Scheme {
	if n < 1 {
		n = 1
	}
	s := &Scheme{
		a8: make([]uint64, n),
		b:  make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		// a must be non-zero for the permutation family to be valid.
		s.a8[i] = (rng.Uint64()%(_mersenne61-1) + 1) << 3
		s.b[i] = rng.Uint64() % _mersenne61
	}
	return s
}

// Size returns the signature length produced by the scheme.
func (s *Scheme) Size() int { return len(s.b) }

// SignText computes the MinHash signature of text's set of n-rune
// character shingles without building the shingles: it slides a window of
// n runes over text and hashes each window's UTF-8 re-encoding (FNV-1a) in
// place. n ≤ 0 means 3, a text of at most n runes is one shingle, and
// every invalid byte counts as one U+FFFD. An empty text has no shingles
// and signs as all math.MaxUint64, which matches only other empty texts.
// The returned signature is the call's only allocation. The tests hold it
// equal to signing texttest.Shingles(text, n) shingle by shingle.
func (s *Scheme) SignText(text string, n int) Signature {
	if n <= 0 {
		n = 3
	}
	sig := s.emptySignature()
	if text == "" {
		return sig
	}
	// text[lo:hi] is the current window.
	lo, hi := 0, 0
	for k := 0; k < n && hi < len(text); k++ {
		hi += runeLen(text[hi:])
	}
	for {
		s.fold(sig, hashRunes(text[lo:hi]))
		if hi == len(text) {
			return sig
		}
		lo += runeLen(text[lo:])
		hi += runeLen(text[hi:])
	}
}

func (s *Scheme) emptySignature() Signature {
	sig := make(Signature, len(s.b))
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	return sig
}

// fold lowers each component of sig to the permuted hash of one shingle
// whose base hash is h, where that is smaller.
func (s *Scheme) fold(sig Signature, h uint64) {
	x := reduce61(h)
	a8, b := s.a8[:len(sig)], s.b[:len(sig)]
	for i := range sig {
		if v := permute(x, a8[i], b[i]); v < sig[i] {
			sig[i] = v
		}
	}
}

const (
	_fnvOffset64 = 14695981039346656037
	_fnvPrime64  = 1099511628211
)

// hashRunes is FNV-1a of string([]rune(s)) computed in place: FNV-1a over
// the bytes of s with each invalid byte replaced by the three bytes of
// U+FFFD, which is what the []rune round trip writes for it. Valid
// sequences hash as they stand, since UTF-8 decoding accepts only the
// shortest encoding of a rune.
func hashRunes(s string) uint64 {
	h := uint64(_fnvOffset64)
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			h = (h ^ uint64(c)) * _fnvPrime64
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			for _, c := range [...]byte{0xEF, 0xBF, 0xBD} {
				h = (h ^ uint64(c)) * _fnvPrime64
			}
		} else {
			for j := i; j < i+size; j++ {
				h = (h ^ uint64(s[j])) * _fnvPrime64
			}
		}
		i += size
	}
	return h
}

// runeLen returns the number of bytes the first rune of the non-empty s
// occupies; an invalid byte is a rune of its own.
func runeLen(s string) int {
	if s[0] < utf8.RuneSelf {
		return 1
	}
	_, size := utf8.DecodeRuneInString(s)
	return size
}

// reduce61 returns x mod p for p = 2^61 - 1.
func reduce61(x uint64) uint64 {
	x = x&_mersenne61 + x>>61
	if x >= _mersenne61 {
		x -= _mersenne61
	}
	return x
}

// permute applies the universal hash (a*x + b) mod p with p = 2^61 - 1 to
// operands already below p, taking a8 = a<<3 in place of a. Since
// 2^61 ≡ 1 (mod p), the 122-bit product a*x is congruent to the sum of its
// low 61 bits and the rest. Multiplying by a8 instead shifts the product
// left by 3, so its high word is that rest and its low word is the low 61
// bits shifted left by 3. That sum plus b stays below 3·2^61, so one more
// fold and one subtraction reach the residue in [0, p).
func permute(x, a8, b uint64) uint64 {
	hi, lo := bits.Mul64(a8, x)
	r := lo>>3 + hi + b
	r = r&_mersenne61 + r>>61
	if r >= _mersenne61 {
		r -= _mersenne61
	}
	return r
}

// MinAgree returns the least number of agreeing components with which two
// signatures of length n estimate a Jaccard similarity of at least
// threshold: the least k in [0, n] with float64(k)/float64(n) >= threshold,
// or n+1 when there is none (a threshold above 1 or NaN, or any positive
// threshold when n is 0, whose estimate is 0). The quotient is
// non-decreasing in k, so the ceiling of threshold·n only needs nudging
// across rounding at the boundary.
func MinAgree(n int, threshold float64) int {
	if threshold <= 0 {
		return 0
	}
	if !(threshold <= 1) || n == 0 {
		return n + 1
	}
	fn := float64(n)
	k := int(math.Ceil(threshold * fn)) // in [0, n]: 0 < threshold ≤ 1
	for k > 0 && float64(k-1)/fn >= threshold {
		k--
	}
	for k <= n && float64(k)/fn < threshold {
		k++
	}
	return k
}

// AgreeAtLeast reports whether a and b agree in at least k components;
// signatures of unequal length agree in none. It counts in blocks of 8
// components, one cache line, and stops after the first block that leaves
// fewer than k possible: at the tweet threshold 0.75 (k = 48 of 64), a
// candidate is refused at the end of the block holding its 17th
// disagreement. Within a block the count has no branch to mispredict; a
// branch per component made confirmation slower than counting all 64. So
// AgreeAtLeast(a, b, MinAgree(len(a), t)) is exactly the comparison
// float64(agree)/float64(len(a)) >= t that the tests make against
// texttest.Similarity.
func AgreeAtLeast(a, b Signature, k int) bool {
	if len(a) != len(b) {
		return k <= 0
	}
	misses := len(a) - k // disagreements that still leave k agreements
	for len(a) > 0 && misses >= 0 {
		n := min(len(a), 8)
		x, y := a[:n], b[:n]
		for i := range x {
			if x[i] != y[i] {
				misses--
			}
		}
		a, b = a[n:], b[n:]
	}
	return misses >= 0
}

// MaxRows is the largest band height an Index supports: a band is keyed by
// its words themselves, held in an array of this many.
const MaxRows = 4

// bandKey is one band of a signature, zero-padded to MaxRows words. Within
// an index every band has the same height, so two keys are equal exactly
// when the bands are — a hash of the band could not promise that, and a
// colliding bucket would hand the caller a candidate that shares no band.
type bandKey [MaxRows]uint64

// Index is an LSH banding index over signatures. Signatures whose bands
// collide become candidate near-duplicates; AppendCandidates returns them,
// each marked with whether its sketch leaves it able to agree in enough
// words, and the caller confirms those with AgreeAtLeast. Join probes and
// adds in one pass, for a caller that adds every signature it probes.
//
// Add and Join may not run concurrently with any other method; any number
// of AppendCandidates calls may run at once.
type Index struct {
	bands int
	rows  int
	// slots[b] maps a band-b key to its bucket's slot in heads, which holds
	// the id added to that bucket last, and next[id*bands+b] is the id
	// added to it before id, -1 when id was the first: each bucket is a
	// chain of descending ids. Adding to a bucket that exists writes its
	// slot, not the map.
	slots []map[bandKey]int32
	heads []int32
	next  []int32
	// sketch[id*sketchWords:][:sketchWords] is the b-bit sketch of id's
	// signature (see sketchOf).
	sketch      []uint64
	sketchWords int
	sigs        []Signature
}

// NewIndex creates an index for signatures of length bands*rows. Values
// below 1 are raised to 1; rows above MaxRows is a programming error and
// panics.
func NewIndex(bands, rows int) *Index {
	if bands < 1 {
		bands = 1
	}
	if rows < 1 {
		rows = 1
	}
	if rows > MaxRows {
		panic("minhash: NewIndex rows exceeds MaxRows")
	}
	slots := make([]map[bandKey]int32, bands)
	for i := range slots {
		slots[i] = make(map[bandKey]int32)
	}
	return &Index{
		bands:       bands,
		rows:        rows,
		slots:       slots,
		sketchWords: (bands*rows + nibblesPerWord - 1) / nibblesPerWord,
	}
}

// Add inserts sig and returns its id within the index. A signature whose
// length is not bands*rows still takes an id, so the caller's own per-id
// tables stay aligned, but joins no bucket: it is never a candidate.
// Add retains sig; beyond the amortized growth of the index it allocates
// nothing.
func (ix *Index) Add(sig Signature) int {
	id := len(ix.sigs)
	ix.sigs = append(ix.sigs, sig)
	n := len(ix.sketch)
	ix.sketch = slices.Grow(ix.sketch, ix.sketchWords)[:n+ix.sketchWords]
	if len(sig) != ix.bands*ix.rows {
		// Its rows of next and of the sketch are never read.
		ix.next = append(ix.next, make([]int32, ix.bands)...)
		return id
	}
	for b := range ix.slots {
		ix.next = append(ix.next, ix.push(b, ix.key(sig, b), int32(id)))
	}
	sketchOf(ix.sketch[n:], sig)
	return id
}

// push makes id the newest member of the band-b bucket of key and returns
// the member it displaces, -1 when the bucket was empty: one map lookup
// for a bucket that exists, and one insertion for one that does not.
func (ix *Index) push(b int, key bandKey, id int32) int32 {
	if slot, ok := ix.slots[b][key]; ok {
		prev := ix.heads[slot]
		ix.heads[slot] = id
		return prev
	}
	ix.slots[b][key] = int32(len(ix.heads))
	ix.heads = append(ix.heads, id)
	return -1
}

// nibblesPerWord is how many signature words one sketch word holds.
const nibblesPerWord = 16

// sketchOf writes the b-bit minwise sketch of sig (Li & König, WWW 2010)
// with b = 4 to sk: the low nibble of word i at bits 4(i%16) of sk[i/16].
// Nibbles past the end of sig stay zero in every sketch, so they never
// differ.
func sketchOf(sk []uint64, sig Signature) {
	for w := range sk {
		var x uint64
		for j, v := range sig[w*nibblesPerWord : min(len(sig), (w+1)*nibblesPerWord)] {
			x |= (v & 0xf) << (4 * (j % nibblesPerWord))
		}
		sk[w] = x
	}
}

// A Candidate is an id that shares at least one band with a probe. Viable
// reports whether the id's sketch agrees with the probe's in at least the
// number of words the probe needs; when it is false, the id's signature
// agrees in fewer words, and AgreeAtLeast would refuse it.
type Candidate struct {
	ID     int
	Viable bool
}

// AppendCandidates appends to dst each id that shares at least one band
// with sig, once, in ascending order (the order of insertion), and returns
// the extended slice. An id is Viable when its sketch agrees with sig's in
// at least need nibbles. Two words that are equal are equal in their low
// nibble, so the nibble count bounds the word count from above: an id that
// is not Viable agrees with sig in fewer than need words. The probe reads
// each candidate's sketch, never its signature. A signature whose length
// is not bands*rows has no candidates. Beyond the growth of dst the probe
// allocates nothing, up to 32 bands and 128 signature words.
func (ix *Index) AppendCandidates(dst []Candidate, sig Signature, need int) []Candidate {
	if len(sig) != ix.bands*ix.rows {
		return dst
	}
	var headBuf [32]int32
	cur := ix.chainBuf(headBuf[:])
	for b := range cur {
		cur[b] = -1
		if slot, ok := ix.slots[b][ix.key(sig, b)]; ok {
			cur[b] = ix.heads[slot]
		}
	}
	var skBuf [8]uint64
	sk := skBuf[:]
	if ix.sketchWords > len(skBuf) {
		sk = make([]uint64, ix.sketchWords)
	}
	sk = sk[:ix.sketchWords]
	sketchOf(sk, sig)
	return ix.walk(dst, cur, sk, len(sig)-need)
}

// Join is AppendCandidates followed by Add, in one pass over the bands:
// it adds sig, then walks from the bucket heads that adding it displaced,
// which are the heads the probe would have read, so each band costs one
// map lookup. It appends the same candidates AppendCandidates would have,
// and the index ends as Add leaves it. Like Add, it may not run
// concurrently with any other method, and beyond the amortized growth of
// the index and of dst it allocates nothing, up to 32 bands.
func (ix *Index) Join(dst []Candidate, sig Signature, need int) []Candidate {
	id := ix.Add(sig)
	if len(sig) != ix.bands*ix.rows {
		return dst
	}
	var headBuf [32]int32
	cur := ix.chainBuf(headBuf[:])
	copy(cur, ix.next[id*ix.bands:])
	sk := ix.sketch[id*ix.sketchWords:][:ix.sketchWords]
	return ix.walk(dst, cur, sk, len(sig)-need)
}

// chainBuf returns buf cut to one entry per band, or a fresh slice when
// buf is too short.
func (ix *Index) chainBuf(buf []int32) []int32 {
	if ix.bands > len(buf) {
		return make([]int32, ix.bands)
	}
	return buf[:ix.bands]
}

// walk appends to dst every id on the chains that start at cur, one chain
// per band, once and in ascending order, each marked Viable when its
// sketch differs from sk in at most misses nibbles. cur is consumed.
func (ix *Index) walk(dst []Candidate, cur []int32, sk []uint64, misses int) []Candidate {
	top := int32(-1)
	for _, id := range cur {
		top = max(top, id)
	}
	start := len(dst)
	// Walk the chains in step from the highest id down: each id comes
	// out once, however many of its bands sig shares.
	for top >= 0 {
		diff := 0
		for w, x := range ix.sketch[int(top)*len(sk):][:len(sk)] {
			diff += nonZeroNibbles(x ^ sk[w])
		}
		dst = append(dst, Candidate{ID: int(top), Viable: diff <= misses})
		// Step the chains that are at top past it; the highest id any
		// chain is at then is the next one down.
		below := int32(-1)
		for b, id := range cur {
			if id == top {
				id = ix.next[int(top)*ix.bands+b]
				cur[b] = id
			}
			below = max(below, id)
		}
		top = below
	}
	slices.Reverse(dst[start:])
	return dst
}

// nonZeroNibbles counts the non-zero nibbles of x.
func nonZeroNibbles(x uint64) int {
	x |= x >> 1
	x |= x >> 2
	return bits.OnesCount64(x & 0x1111111111111111)
}

// Signature returns the stored signature for id.
func (ix *Index) Signature(id int) Signature {
	if id < 0 || id >= len(ix.sigs) {
		return nil
	}
	return ix.sigs[id]
}

// Len returns the number of signatures stored.
func (ix *Index) Len() int { return len(ix.sigs) }

// key returns band b of sig, whose length the caller has checked.
func (ix *Index) key(sig Signature, b int) bandKey {
	var k bandKey
	copy(k[:], sig[b*ix.rows:(b+1)*ix.rows])
	return k
}
