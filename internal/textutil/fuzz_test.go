package textutil

import (
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil/texttest"
)

func FuzzTokenize(f *testing.F) {
	f.Add("hello world")
	f.Add("@user check https://x.example/y #tag 123 \U0001F600")
	f.Add("ünïcödé 漢字 \x00\xff")
	f.Fuzz(func(t *testing.T, s string) {
		tokens := Tokenize(s)
		for _, tok := range tokens {
			if tok == "" {
				t.Fatal("empty token")
			}
		}
		// Derived operations must not panic and must stay consistent.
		_ = RemoveStopWords(tokens)
		_ = NormalizeDescription(s)
		_ = StripURLs(s)
		_ = StripEmoji(s)
		if CountEmoji(StripEmoji(s)) != 0 {
			t.Fatal("emoji survive StripEmoji")
		}
	})
}

func FuzzClassSeq(f *testing.F) {
	f.Add("John_doe99")
	f.Add("")
	f.Add("漢字_ABC-123")
	f.Fuzz(func(t *testing.T, s string) {
		seq := ClassSeq(s)
		if len([]rune(seq)) > len([]rune(s)) {
			t.Fatalf("ClassSeq(%q) longer than input", s)
		}
		bucketed := ClassSeqWithRunLengths(s)
		if (seq == "") != (bucketed == "") {
			t.Fatalf("plain and bucketed sequences disagree on emptiness for %q", s)
		}
	})
}

func FuzzShingles(f *testing.F) {
	f.Add("abcdef", 3)
	f.Add("", 0)
	f.Add("ab", 5)
	f.Fuzz(func(t *testing.T, s string, n int) {
		if n > 1000 || n < -1000 {
			return
		}
		sh := texttest.Shingles(s, n)
		if len(s) > 0 && len(sh) == 0 {
			t.Fatalf("non-empty string %q produced no shingles", s)
		}
	})
}
