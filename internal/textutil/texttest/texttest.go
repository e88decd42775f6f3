// Package texttest holds the set-based definitions behind the labeler's
// near-duplicate kernel: a text's character-shingle set and the Jaccard
// similarity of two sets. The labeler never builds either — it signs texts
// with minhash.Scheme.SignText, which hashes the same windows in place —
// so they live here, as the reference the kernel's tests compare against.
package texttest

// Shingles returns the n-gram character shingles of s. The paper's MinHash
// step uses tri-gram shingling (n = 3). Strings shorter than n yield a
// single shingle containing the whole string, so short descriptions still
// compare equal only to identical short descriptions.

func Shingles(s string, n int) []string {
	if n <= 0 {
		n = 3
	}
	runes := []rune(s)
	if len(runes) == 0 {
		return nil
	}
	if len(runes) <= n {
		return []string{string(runes)}
	}
	out := make([]string, 0, len(runes)-n+1)
	for i := 0; i+n <= len(runes); i++ {
		out = append(out, string(runes[i:i+n]))
	}
	return out
}

// Jaccard computes the Jaccard similarity of two shingle sets.
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	setA := make(map[string]struct{}, len(a))
	for _, s := range a {
		setA[s] = struct{}{}
	}
	setB := make(map[string]struct{}, len(b))
	for _, s := range b {
		setB[s] = struct{}{}
	}
	inter := 0
	for s := range setA {
		if _, ok := setB[s]; ok {
			inter++
		}
	}
	union := len(setA) + len(setB) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
