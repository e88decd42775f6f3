package minhash

import (
	"hash/fnv"
	"slices"
)

// Sign computes the MinHash signature of a shingle set: the definition
// SignText must match signature for signature. An empty set yields a
// signature of all math.MaxUint64.
func (s *Scheme) Sign(shingles []string) Signature {
	sig := s.emptySignature()
	for _, sh := range shingles {
		s.fold(sig, baseHash(sh))
	}
	return sig
}

// baseHash maps a shingle to a 64-bit integer via FNV-1a.
func baseHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// Candidates returns the ids of the added signatures that share at least
// one band with sig, each once, in ascending order (the order of
// insertion). A signature whose length is not bands*rows has no candidates.
// It is the probe AppendCandidates replaced, kept as its oracle: the two
// enumerate the same ids, and these filtered by AgreeAtLeast are the ones
// label.join confirms among the viable candidates.
func (ix *Index) Candidates(sig Signature) []int {
	if len(sig) != ix.bands*ix.rows {
		return nil
	}
	cur := make([]int32, ix.bands)
	n := ix.merge(ix.chains(cur, sig), nil)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	ix.merge(ix.chains(cur, sig), out)
	slices.Reverse(out)
	return out
}

// head returns the id added last to the band-b bucket of key, -1 when the
// bucket is empty.
func (ix *Index) head(b int, key bandKey) int32 {
	if slot, ok := ix.slots[b][key]; ok {
		return ix.heads[slot]
	}
	return -1
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

// matches returns the candidates that agree with sig in at least need
// words: what a join that confirms every candidate unites.
func (ix *Index) matches(sig Signature, need int) []int {
	var out []int
	for _, id := range ix.Candidates(sig) {
		if AgreeAtLeast(sig, ix.Signature(id), need) {
			out = append(out, id)
		}
	}
	return out
}
