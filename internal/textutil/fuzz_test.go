package textutil

import (
	"strings"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil/texttest"
)

// FuzzNormalize holds both one-pass normalizers equal to the pass-per-step
// composition they replaced, in both flavours, and checks that no token is
// empty and no emoji survives.
func FuzzNormalize(f *testing.F) {
	f.Add("hello world")
	f.Add("@user check https://x.example/y #tag 123 \U0001F600")
	f.Add("ünïcödé 漢字 \x00\xff")
	f.Add("bad \xe2\x82 utf8 \xc3( mid\xffword \xed\xa0\x80")
	f.Add("nel\u0085separated nbsp\u00a0separated")
	f.Add("emoji in\U0001F600side a to\u2764ken")
	f.Add("the stop words at both ends are the")
	f.Add("with this, that and them: they were here")
	f.Add("a bare @ and @@double and mid@field")
	f.Add("HTTP://upper.example stays tokens but https://lower.example does not")
	f.Add("İstanbul straße ΣΊΣΥΦΟΣ")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		for _, mentions := range []bool{false, true} {
			got := normalize(s, mentions)
			if want := referenceNormalize(s, mentions); got != want {
				t.Fatalf("normalize(%q, %v) = %q, reference %q", s, mentions, got, want)
			}
			if CountEmoji(got) != 0 {
				t.Fatalf("emoji survive normalize(%q, %v) = %q", s, mentions, got)
			}
			if strings.Contains(got, "  ") || strings.HasPrefix(got, " ") || strings.HasSuffix(got, " ") {
				t.Fatalf("normalize(%q, %v) = %q has an empty token", s, mentions, got)
			}
		}
		if NormalizeDescription(s) != normalize(s, false) || NormalizeTweet(s) != normalize(s, true) {
			t.Fatal("flavours disagree with normalize")
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
