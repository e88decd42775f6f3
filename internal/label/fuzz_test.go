package label

import (
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil/texttest"
)

// FuzzStripMentions checks the invariants of texttest.StripMentions, the
// reference textutil.NormalizeTweet's mention handling is held to, on
// arbitrary input: no panic, no @-prefixed field survives, non-mention
// fields survive in order, and the function is idempotent.
func FuzzStripMentions(f *testing.F) {
	f.Add("@alice hello @bob world")
	f.Add("no mentions here")
	f.Add("@@double @ lone\t@tab\nnewline")
	f.Add("  leading and trailing  ")
	f.Add("@only @mentions @here")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		out := texttest.StripMentions(s)
		for _, field := range strings.Fields(out) {
			if strings.HasPrefix(field, "@") {
				t.Fatalf("texttest.StripMentions(%q) = %q keeps mention %q", s, out, field)
			}
		}
		// Exactly the non-mention fields survive, in order.
		var want []string
		for _, field := range strings.Fields(s) {
			if !strings.HasPrefix(field, "@") {
				want = append(want, field)
			}
		}
		if got := strings.Join(want, " "); got != out {
			t.Fatalf("texttest.StripMentions(%q) = %q, want %q", s, out, got)
		}
		if again := texttest.StripMentions(out); again != out {
			t.Fatalf("not idempotent: %q → %q → %q", s, out, again)
		}
	})
}

// FuzzClassCount checks classCount on arbitrary Σ-Seq-ish keys: no panic,
// the count never exceeds the distinct non-digit runes, digits never
// count, and prefixing a digit never changes the result.
func FuzzClassCount(f *testing.F) {
	f.Add("a3A2d1")
	f.Add("")
	f.Add("123456")
	f.Add("aAdso")
	f.Add("ααβ12")
	f.Fuzz(func(t *testing.T, seq string) {
		n := classCount(seq)
		distinct := make(map[rune]struct{})
		for _, r := range seq {
			if r >= '0' && r <= '9' {
				continue
			}
			distinct[r] = struct{}{}
		}
		if n != len(distinct) {
			t.Fatalf("classCount(%q) = %d, want %d distinct non-digit runes", seq, n, len(distinct))
		}
		if m := classCount("7" + seq + "0"); m != n {
			t.Fatalf("digit padding changed count: %d vs %d", m, n)
		}
		_ = utf8.ValidString(seq) // invalid UTF-8 must terminate too
	})
}
