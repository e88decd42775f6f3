package textutil

import (
	"strings"
	"unicode"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil/texttest"
)

// This file keeps the pass-per-step text pipeline that NormalizeDescription
// and NormalizeTweet compute in one pass: strip URL fields, strip emoji,
// tokenize, drop stop words, join. It is their oracle.

// ClassSeq is ClassSeqWithRunLengths without the run lengths: one class
// symbol per maximal run, so "John_Doe99" → "UlPUlN".
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

// referenceNormalize is the composition the one-pass normalizer replaced:
// NormalizeDescription's when dropMentions is false, NormalizeTweet's when
// it is true.
func referenceNormalize(s string, dropMentions bool) string {
	if dropMentions {
		s = texttest.StripMentions(s)
	}
	s = StripURLs(s)
	s = StripEmoji(s)
	return strings.Join(RemoveStopWords(Tokenize(s)), " ")
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

// StripURLs removes http(s) URLs from s.
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
