// Package minhash implements MinHash signatures over character-shingle sets
// and an LSH banding index over them. The labeling pipeline uses both to
// find near-duplicate user descriptions and near-duplicate tweet contents
// (paper §IV-B): two texts are considered identical when enough of the
// minimum hash values of their tri-gram shinglings agree, and the banding
// index generates the candidate pairs so no corpus is compared all-to-all.
package minhash

import (
	"hash/fnv"
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
	a, b []uint64
}

const _mersenne61 = (1 << 61) - 1

// NewScheme creates a Scheme with n hash permutations drawn from rng.
// n must be positive; values below 1 are raised to 1.
func NewScheme(n int, rng *rand.Rand) *Scheme {
	if n < 1 {
		n = 1
	}
	s := &Scheme{
		a: make([]uint64, n),
		b: make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		// a must be non-zero for the permutation family to be valid.
		s.a[i] = rng.Uint64()%(_mersenne61-1) + 1
		s.b[i] = rng.Uint64() % _mersenne61
	}
	return s
}

// Size returns the signature length produced by the scheme.
func (s *Scheme) Size() int { return len(s.a) }

// Sign computes the MinHash signature of the shingle set. An empty set
// yields a signature of all math.MaxUint64, which matches only other empty
// sets.
//
// Sign over textutil.Shingles is the definition of a text's signature;
// production signs with SignText, which the differential tests hold equal
// to it word for word.
func (s *Scheme) Sign(shingles []string) Signature {
	sig := s.emptySignature()
	for _, sh := range shingles {
		s.fold(sig, baseHash(sh))
	}
	return sig
}

// SignText computes Sign(textutil.Shingles(text, n)) without building the
// shingles: it slides a window of n runes over text and hashes each
// window's UTF-8 re-encoding in place. As in Shingles, n ≤ 0 means 3, a
// text of at most n runes is one shingle, and every invalid byte counts as
// one U+FFFD. The returned signature is the call's only allocation.
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
	sig := make(Signature, len(s.a))
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	return sig
}

// fold lowers each component of sig to the permuted hash of one shingle
// whose base hash is h, where that is smaller.
func (s *Scheme) fold(sig Signature, h uint64) {
	x := reduce61(h)
	a, b := s.a[:len(sig)], s.b[:len(sig)]
	for i := range sig {
		if v := permute(x, a[i], b[i]); v < sig[i] {
			sig[i] = v
		}
	}
}

// baseHash maps a shingle to a 64-bit integer via FNV-1a.
func baseHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

const (
	_fnvOffset64 = 14695981039346656037
	_fnvPrime64  = 1099511628211
)

// hashRunes is baseHash(string([]rune(s))) computed in place: FNV-1a over
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
// operands already below p. Since 2^61 ≡ 1 (mod p), the 122-bit product
// a*x is congruent to the sum of its low 61 bits and the rest; that sum
// plus b stays below 3·2^61, so one more fold and one subtraction reach the
// residue in [0, p).
func permute(x, a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, x)
	r := lo&_mersenne61 + (hi<<3 | lo>>61) + b
	r = r&_mersenne61 + r>>61
	if r >= _mersenne61 {
		r -= _mersenne61
	}
	return r
}

// Similarity estimates the Jaccard similarity of the sets behind two
// signatures as the fraction of agreeing components. Signatures of unequal
// length have similarity 0.
func Similarity(a, b Signature) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	agree := 0
	for i := range a {
		if a[i] == b[i] {
			agree++
		}
	}
	return float64(agree) / float64(len(a))
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
// collide become candidate near-duplicates; the caller confirms candidates
// with Similarity or exact comparison.
//
// Add may not run concurrently with any other method; any number of
// Candidates calls may run at once.
type Index struct {
	bands int
	rows  int
	// heads[b] maps a band-b key to the id added to that bucket last, and
	// next[id*bands+b] is the id added to it before id, -1 when id was the
	// first: each bucket is a chain of descending ids.
	heads []map[bandKey]int32
	next  []int32
	sigs  []Signature
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
	heads := make([]map[bandKey]int32, bands)
	for i := range heads {
		heads[i] = make(map[bandKey]int32)
	}
	return &Index{bands: bands, rows: rows, heads: heads}
}

// Add inserts sig and returns its id within the index. A signature whose
// length is not bands*rows still takes an id, so the caller's own per-id
// tables stay aligned, but joins no bucket: it is never a candidate.
// Add retains sig; beyond the amortized growth of the index it allocates
// nothing.
func (ix *Index) Add(sig Signature) int {
	id := len(ix.sigs)
	ix.sigs = append(ix.sigs, sig)
	if len(sig) != ix.bands*ix.rows {
		ix.next = append(ix.next, make([]int32, ix.bands)...) // never read
		return id
	}
	for b, heads := range ix.heads {
		key := ix.key(sig, b)
		ix.next = append(ix.next, ix.head(b, key))
		heads[key] = int32(id)
	}
	return id
}

// Candidates returns the ids of the added signatures that share at least
// one band with sig, each once, in ascending order (the order of
// insertion). A signature whose length is not bands*rows has no candidates.
// The result is the call's only allocation, up to 32 bands.
func (ix *Index) Candidates(sig Signature) []int {
	if len(sig) != ix.bands*ix.rows {
		return nil
	}
	var buf [32]int32
	cur := buf[:]
	if ix.bands > len(buf) {
		cur = make([]int32, ix.bands)
	}
	cur = cur[:ix.bands]
	// Most probes find fewer ids than fit on the stack; the rest merge
	// again into a result of the size the first pass counted.
	var first [128]int
	n := ix.merge(ix.chains(cur, sig), first[:])
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	if n > len(first) {
		ix.merge(ix.chains(cur, sig), out)
	} else {
		copy(out, first[:n])
	}
	slices.Reverse(out)
	return out
}

// chains fills cur, one entry per band, with the head of the chain that
// sig's band selects, and returns it.
func (ix *Index) chains(cur []int32, sig Signature) []int32 {
	for b := range cur {
		cur[b] = ix.head(b, ix.key(sig, b))
	}
	return cur
}

// merge walks the chains that start at cur, one per band, in step from the
// highest id down. It returns how many distinct ids they hold and writes
// them to out, descending, as far as out has room. cur is consumed.
func (ix *Index) merge(cur []int32, out []int) int {
	top := int32(-1)
	for _, id := range cur {
		top = max(top, id)
	}
	n := 0
	for top >= 0 {
		if n < len(out) {
			out[n] = int(top)
		}
		n++
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
	return n
}

// head returns the id added last to the band-b bucket of key, -1 when the
// bucket is empty.
func (ix *Index) head(b int, key bandKey) int32 {
	if id, ok := ix.heads[b][key]; ok {
		return id
	}
	return -1
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
