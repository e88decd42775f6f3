// Package textutil implements the text-processing primitives the
// pseudo-honeypot labeling pipeline relies on: tokenization, stop-word
// removal, URL/emoji stripping, tri-gram shingling for MinHash, and the
// Σ-Seq character-class sequences used to cluster campaign screen names
// (paper §IV-B).
package textutil

import (
	"strings"
	"unicode"
)

// stop words removed before shingling user descriptions. The list mirrors a
// compact English stop-word set; the clustering result only needs it to be
// stable, not exhaustive.
var _stopWords = map[string]struct{}{
	"a": {}, "an": {}, "and": {}, "are": {}, "as": {}, "at": {}, "be": {},
	"by": {}, "for": {}, "from": {}, "has": {}, "he": {}, "in": {}, "is": {},
	"it": {}, "its": {}, "of": {}, "on": {}, "or": {}, "she": {}, "that": {},
	"the": {}, "to": {}, "was": {}, "we": {}, "were": {}, "will": {},
	"with": {}, "you": {}, "your": {}, "i": {}, "my": {}, "me": {}, "our": {},
	"this": {}, "they": {}, "them": {}, "but": {}, "not": {}, "so": {},
}

// Tokenize lower-cases s and splits it into alphanumeric word tokens.
// Everything that is not a letter or digit separates tokens.
func Tokenize(s string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range strings.ToLower(s) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(r)
			continue
		}
		flush()
	}
	flush()
	return tokens
}

// RemoveStopWords filters common English stop words from tokens.
func RemoveStopWords(tokens []string) []string {
	var out []string
	for _, tok := range tokens {
		if _, stop := _stopWords[tok]; stop {
			continue
		}
		out = append(out, tok)
	}
	return out
}

// StripURLs removes http(s) URLs from s. Used when normalizing user
// descriptions and tweet contents before clustering.
func StripURLs(s string) string {
	var b strings.Builder
	fields := strings.Fields(s)
	for _, f := range fields {
		if strings.HasPrefix(f, "http://") || strings.HasPrefix(f, "https://") ||
			strings.HasPrefix(f, "www.") {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(f)
	}
	return b.String()
}

// CountEmoji returns the number of emoji-range runes in s. The check covers
// the main emoji blocks (emoticons, pictographs, transport, supplemental
// symbols) — enough to make the description/content emoji-count features
// discriminative.
func CountEmoji(s string) int {
	n := 0
	for _, r := range s {
		if isEmoji(r) {
			n++
		}
	}
	return n
}

// StripEmoji removes emoji-range runes from s.
func StripEmoji(s string) string {
	var b strings.Builder
	for _, r := range s {
		if isEmoji(r) {
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

func isEmoji(r rune) bool {
	switch {
	case r >= 0x1F600 && r <= 0x1F64F: // emoticons
		return true
	case r >= 0x1F300 && r <= 0x1F5FF: // misc symbols and pictographs
		return true
	case r >= 0x1F680 && r <= 0x1F6FF: // transport
		return true
	case r >= 0x1F900 && r <= 0x1F9FF: // supplemental symbols
		return true
	case r >= 0x2600 && r <= 0x27BF: // misc symbols, dingbats
		return true
	}
	return false
}

// CountDigits returns the number of decimal-digit runes in s.
func CountDigits(s string) int {
	n := 0
	for _, r := range s {
		if unicode.IsDigit(r) {
			n++
		}
	}
	return n
}

// NormalizeDescription applies the paper's description preprocessing:
// remove URLs, emoji, stop words, and special characters, returning the
// cleaned token sequence joined by single spaces.
func NormalizeDescription(s string) string {
	s = StripURLs(s)
	s = StripEmoji(s)
	tokens := RemoveStopWords(Tokenize(s))
	return strings.Join(tokens, " ")
}

// Shingles returns the n-gram character shingles of s. The paper's MinHash
// step uses tri-gram shingling (n = 3). Strings shorter than n yield a
// single shingle containing the whole string, so short descriptions still
// compare equal only to identical short descriptions.
//
// This is the definition of the shingle set. The labeler signs texts with
// minhash.Scheme.SignText, which hashes the same windows without building
// them and is tested equal to signing this function's result.
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

// ClassSeq maps a screen name onto the paper's Σ-Seq representation using
// the character classes Σ = {p{Lu}, p{Ll}, p{N}, p{P}}: runs of uppercase,
// lowercase, numeric, and punctuation characters. Each maximal run is
// emitted as one class symbol, so "John_Doe99" → "Ulp.Ul.N" style sequences
// collapse naming-template variants into identical keys.
//
// The output alphabet is: 'U' uppercase run, 'l' lowercase run, 'N' numeric
// run, 'P' punctuation/symbol run, '?' anything else.
func ClassSeq(name string) string {
	var b strings.Builder
	var prev byte
	for _, r := range name {
		c := classOf(r)
		if c == prev {
			continue
		}
		b.WriteByte(c)
		prev = c
	}
	return b.String()
}

// ClassSeqWithRunLengths is like ClassSeq but keeps bucketed run lengths
// (1, 2–3, 4+ encoded as the digits 1, 2, 3), which tightens groups enough
// to keep the false-positive rate low without splitting template variants.
func ClassSeqWithRunLengths(name string) string {
	var b strings.Builder
	var prev byte
	runLen := 0
	flush := func() {
		if prev == 0 {
			return
		}
		b.WriteByte(prev)
		switch {
		case runLen <= 1:
			b.WriteByte('1')
		case runLen <= 3:
			b.WriteByte('2')
		default:
			b.WriteByte('3')
		}
	}
	for _, r := range name {
		c := classOf(r)
		if c == prev {
			runLen++
			continue
		}
		flush()
		prev = c
		runLen = 1
	}
	flush()
	return b.String()
}

func classOf(r rune) byte {
	switch {
	case unicode.IsUpper(r):
		return 'U'
	case unicode.IsLower(r):
		return 'l'
	case unicode.IsDigit(r):
		return 'N'
	case unicode.IsPunct(r) || unicode.IsSymbol(r):
		return 'P'
	default:
		return '?'
	}
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
