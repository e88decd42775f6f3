// Package textutil implements the text-processing primitives the
// pseudo-honeypot labeling pipeline relies on: normalization (URL, emoji
// and stop-word stripping and tokenization, in one pass), emoji and digit
// counts, and the Σ-Seq character-class sequences used to cluster campaign
// screen names (paper §IV-B).
package textutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
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
//
// The text is split into fields as strings.Fields splits it. A field that
// starts with "http://", "https://" or "www." is dropped whole; in the
// others, emoji runes are dropped, the rest is lower-cased rune by rune,
// and every maximal run of letters and digits is a token. Stop-word tokens
// are dropped. All of it happens in one pass: the result is the call's
// only allocation, and an empty result makes none. The tests hold it equal
// to the pass-per-step composition it replaced (reference_test.go).
func NormalizeDescription(s string) string { return normalize(s, false) }

// NormalizeTweet is NormalizeDescription that also drops every field
// starting with "@", so near-duplicate checking compares a tweet's payload,
// not the names it mentions.
func NormalizeTweet(s string) string { return normalize(s, true) }

// normScratch is the stack buffer a normalized text is built in; only a
// longer result spills to the heap.
const normScratch = 256

// asciiClass maps an ASCII byte to its lower-case form when it is a letter
// or digit, to asciiSpace when unicode.IsSpace holds for it, and to 0 for
// every other separator: the ASCII case of the per-rune tests below.
var asciiClass = func() (t [utf8.RuneSelf]byte) {
	for c := byte(0); c < utf8.RuneSelf; c++ {
		switch r := unicode.ToLower(rune(c)); {
		case unicode.IsSpace(r):
			t[c] = asciiSpace
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			t[c] = byte(r)
		}
	}
	return t
}()

const asciiSpace = 1

// maxStopLen is the length of the longest stop word; no longer token needs
// the lookup.
var maxStopLen = func() (n int) {
	for w := range _stopWords {
		n = max(n, len(w))
	}
	return n
}()

func normalize(s string, dropMentions bool) string {
	var scratch [normScratch]byte
	out := scratch[:0]
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf && asciiClass[c] == asciiSpace {
			i++
			continue
		}
		if r, size := utf8.DecodeRuneInString(s[i:]); r >= utf8.RuneSelf && unicode.IsSpace(r) {
			i += size
			continue
		}
		// s[i:] starts a field. The prefixes dropped looks for hold no
		// space, so each is a prefix of the field when it is one of s[i:].
		if dropped(s[i:], dropMentions) {
			i = fieldEnd(s, i)
			continue
		}
		// tok is where the current token starts in out (before its
		// separating space), or -1 between tokens.
		tok := -1
		for i < len(s) {
			var l rune
			if c := s[i]; c < utf8.RuneSelf {
				k := asciiClass[c]
				if k == asciiSpace {
					break
				}
				i++
				if k == 0 {
					out = endToken(out, tok)
					tok = -1
					continue
				}
				l = rune(k)
			} else {
				r, size := utf8.DecodeRuneInString(s[i:])
				if unicode.IsSpace(r) {
					break
				}
				i += size
				if isEmoji(r) {
					continue
				}
				if l = unicode.ToLower(r); !unicode.IsLetter(l) && !unicode.IsDigit(l) {
					out = endToken(out, tok)
					tok = -1
					continue
				}
			}
			if tok < 0 {
				tok = len(out)
				if tok > 0 {
					out = append(out, ' ')
				}
			}
			out = utf8.AppendRune(out, l)
		}
		out = endToken(out, tok)
	}
	return string(out)
}

// dropped reports whether the field s starts with is dropped whole: a URL,
// or a mention when dropMentions is set.
func dropped(s string, dropMentions bool) bool {
	switch s[0] {
	case 'h':
		return strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://")
	case 'w':
		return strings.HasPrefix(s, "www.")
	case '@':
		return dropMentions
	}
	return false
}

// endToken closes the token that starts at out[tok] (its separating space
// included), dropping it again when it is a stop word.
func endToken(out []byte, tok int) []byte {
	if tok < 0 {
		return out
	}
	word := out[tok:]
	if tok > 0 {
		word = word[1:]
	}
	if len(word) > maxStopLen {
		return out
	}
	if _, stop := _stopWords[string(word)]; stop {
		return out[:tok]
	}
	return out
}

// fieldEnd returns the index of the first space rune at or after s[i:], or
// len(s).
func fieldEnd(s string, i int) int {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiClass[c] == asciiSpace {
				return i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) {
			return i
		}
		i += size
	}
	return i
}

// ClassSeqWithRunLengths maps a screen name onto the paper's Σ-Seq
// representation using the character classes Σ = {p{Lu}, p{Ll}, p{N},
// p{P}}: each maximal run of uppercase, lowercase, numeric, or
// punctuation/symbol characters is emitted as one class symbol ('U', 'l',
// 'N', 'P', or '?' for anything else) followed by its bucketed run length
// (1, 2–3, 4+ encoded as the digits 1, 2, 3). Naming-template variants
// collapse into identical keys, and the run lengths tighten groups enough
// to keep the false-positive rate low without splitting them.
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
