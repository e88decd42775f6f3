// Package texttest holds the plain definitions behind the labeler's text
// kernels: a text's character-shingle set, the Jaccard similarity of two
// sets, the fraction of agreeing signature components, and mention
// stripping. The labeler never builds any of them — it signs texts with
// minhash.Scheme.SignText, confirms candidates with minhash.AgreeAtLeast and
// normalizes tweets with textutil.NormalizeTweet, each in one pass — so
// they live here, as the references the kernels' tests compare against.
// So does the candidate-pair set of an LSH banding index, which the label
// store's oracle enumerates here instead of probing minhash.Index.
package texttest

import (
	"encoding/binary"
	"slices"
	"strings"
)

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

// StripMentions removes the @name fields of s and joins the rest with
// single spaces: the step the tweet labeler once ran before normalizing,
// kept as the reference for textutil.NormalizeTweet's mention handling.
func StripMentions(s string) string {
	fields := strings.Fields(s)
	out := fields[:0]
	for _, f := range fields {
		if strings.HasPrefix(f, "@") {
			continue
		}
		out = append(out, f)
	}
	return strings.Join(out, " ")
}

// Similarity is the fraction of agreeing components of two MinHash
// signatures: the estimate of the Jaccard similarity of the sets behind
// them. Signatures of unequal length, or empty ones, have similarity 0.
// minhash.AgreeAtLeast(a, b, minhash.MinAgree(len(a), t)) decides
// Similarity(a, b) >= t without finishing the count.
func Similarity(a, b []uint64) float64 {
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

// BandNeighbours returns, for each signature i, the indices j < i of the
// signatures that agree with it on every word of at least one band, bands
// being the consecutive runs of rows words, in ascending order: the
// candidates an LSH banding index probed before adding i would yield. Only
// signatures of length bands*rows take part. It groups the signatures by
// each band's bytes, one map per band.
func BandNeighbours[S ~[]uint64](sigs []S, bands, rows int) [][]int {
	out := make([][]int, len(sigs))
	var key []byte
	for b := 0; b < bands; b++ {
		seen := make(map[string][]int)
		for i, sig := range sigs {
			if len(sig) != bands*rows {
				continue
			}
			key = key[:0]
			for _, v := range sig[b*rows : (b+1)*rows] {
				key = binary.LittleEndian.AppendUint64(key, v)
			}
			out[i] = append(out[i], seen[string(key)]...)
			seen[string(key)] = append(seen[string(key)], i)
		}
	}
	for i := range out {
		slices.Sort(out[i])
		out[i] = slices.Compact(out[i])
	}
	return out
}
