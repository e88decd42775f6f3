package minhash

import "hash/fnv"

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
