package textutil

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unicode"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil/texttest"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		give string
		want []string
	}{
		{give: "Hello, World!", want: []string{"hello", "world"}},
		{give: "", want: nil},
		{give: "  multiple   spaces  ", want: []string{"multiple", "spaces"}},
		{give: "CamelCase99x", want: []string{"camelcase99x"}},
		{give: "a-b_c", want: []string{"a", "b", "c"}},
	}
	for _, tt := range tests {
		got := Tokenize(tt.give)
		if len(got) != len(tt.want) {
			t.Fatalf("Tokenize(%q) = %v, want %v", tt.give, got, tt.want)
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Fatalf("Tokenize(%q) = %v, want %v", tt.give, got, tt.want)
			}
		}
	}
}

func TestRemoveStopWords(t *testing.T) {
	got := RemoveStopWords([]string{"the", "quick", "fox", "is", "here"})
	want := []string{"quick", "fox", "here"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("RemoveStopWords = %v, want %v", got, want)
	}
}

func TestStripURLs(t *testing.T) {
	tests := []struct {
		give, want string
	}{
		{give: "buy now https://spam.example/x cheap", want: "buy now cheap"},
		{give: "http://a.b", want: ""},
		{give: "no urls here", want: "no urls here"},
		{give: "see www.example.com today", want: "see today"},
	}
	for _, tt := range tests {
		if got := StripURLs(tt.give); got != tt.want {
			t.Fatalf("StripURLs(%q) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestCountEmoji(t *testing.T) {
	if got := CountEmoji("hi \U0001F600\U0001F680 there ❤"); got != 3 {
		t.Fatalf("CountEmoji = %d, want 3", got)
	}
	if got := CountEmoji("plain text"); got != 0 {
		t.Fatalf("CountEmoji(plain) = %d, want 0", got)
	}
}

func TestStripEmojiRemovesAllEmoji(t *testing.T) {
	s := "win \U0001F4B0 money \U0001F911 now"
	if got := CountEmoji(StripEmoji(s)); got != 0 {
		t.Fatalf("emoji remain after StripEmoji: %d", got)
	}
}

func TestCountDigits(t *testing.T) {
	if got := CountDigits("abc123x7"); got != 4 {
		t.Fatalf("CountDigits = %d, want 4", got)
	}
}

func TestNormalizeDescription(t *testing.T) {
	give := "The BEST deals!!! https://t.co/abc \U0001F911 for you"
	want := "best deals"
	if got := NormalizeDescription(give); got != want {
		t.Fatalf("NormalizeDescription = %q, want %q", got, want)
	}
}

func TestNormalizeTweetDropsMentions(t *testing.T) {
	give := "@Alice the BEST deals @bob!!! https://t.co/abc \U0001F911 mid@field"
	if got, want := NormalizeTweet(give), "best deals mid field"; got != want {
		t.Fatalf("NormalizeTweet = %q, want %q", got, want)
	}
	if got, want := NormalizeDescription(give), "alice best deals bob mid field"; got != want {
		t.Fatalf("NormalizeDescription = %q, want %q", got, want)
	}
}

// TestNormalizeMatchesReference draws random texts from runes that sit on
// every branch of the normalizer — field separators inside and outside
// Latin-1, emoji, runes whose lower case changes length, invalid bytes,
// URL and mention prefixes, stop words — and holds both flavours equal to
// the pass-per-step composition, including texts whose result outgrows
// the stack scratch.
func TestNormalizeMatchesReference(t *testing.T) {
	pieces := []string{
		"a", "Z", "7", "the", "and", "is", "I", "with", "This", " ", "  ", "\t", "\n", "\u0085", "\u00a0",
		"\u2028", "\u3000", "@", "@bob", "http://", "https://x", "www.", "HTTP://", "Www.",
		"\U0001F600", "\u2764", "\U0001F9FF", "İ", "ß", "Σ", "ς", "Ⱥ", "ǅ", "漢", "١",
		"\xff", "\xe2\x82", "\xed\xa0\x80", "\xc3", "-", "_", "'", ".", "#", "//",
	}
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	for i := 0; i < 20000; i++ {
		b.Reset()
		n := 1 + rng.Intn(12)
		if i%100 == 0 {
			n = 400 // past normScratch
		}
		for j := 0; j < n; j++ {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		s := b.String()
		for _, mentions := range []bool{false, true} {
			if got, want := normalize(s, mentions), referenceNormalize(s, mentions); got != want {
				t.Fatalf("normalize(%q, %v) = %q, reference %q", s, mentions, got, want)
			}
		}
	}
}

// TestNormalizeAllocs pins the normalizer's cost: one allocation for a
// non-empty result (the string itself), none for an empty one.
func TestNormalizeAllocs(t *testing.T) {
	const tweet = "@alice just had the best coffee with my team today \U0001F600 http://x.example/1 (dog cat 42)"
	for _, tt := range []struct {
		name string
		fn   func(string) string
		give string
		want float64
	}{
		{"description", NormalizeDescription, tweet, 1},
		{"tweet", NormalizeTweet, tweet, 1},
		{"description-empty", NormalizeDescription, "the http://x.example \U0001F600 a", 0},
		{"tweet-empty", NormalizeTweet, "@alice @bob https://x.example is", 0},
	} {
		var out string
		got := testing.AllocsPerRun(100, func() { out = tt.fn(tt.give) })
		if got != tt.want {
			t.Errorf("%s: %v allocations for %q, want %v", tt.name, got, out, tt.want)
		}
	}
}

func TestShingles(t *testing.T) {
	got := texttest.Shingles("abcd", 3)
	want := []string{"abc", "bcd"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Shingles = %v, want %v", got, want)
	}
}

func TestShinglesShortString(t *testing.T) {
	got := texttest.Shingles("ab", 3)
	if len(got) != 1 || got[0] != "ab" {
		t.Fatalf("texttest.Shingles(short) = %v, want [ab]", got)
	}
	if got := texttest.Shingles("", 3); got != nil {
		t.Fatalf("texttest.Shingles(empty) = %v, want nil", got)
	}
}

func TestShinglesDefaultN(t *testing.T) {
	if got := texttest.Shingles("abcd", 0); len(got) != 2 {
		t.Fatalf("Shingles with n=0 should default to tri-grams, got %v", got)
	}
}

func TestClassSeqCollapsesTemplates(t *testing.T) {
	// A campaign naming template: capitalized word + underscore + word +
	// digits. All instances must map to the same sequence.
	names := []string{"John_doe99", "Mary_lou12", "Riko_abc77"}
	first := ClassSeq(names[0])
	for _, n := range names[1:] {
		if got := ClassSeq(n); got != first {
			t.Fatalf("ClassSeq(%q) = %q, want %q", n, got, first)
		}
	}
}

func TestClassSeqDistinguishesShapes(t *testing.T) {
	if ClassSeq("alllower") == ClassSeq("ALLUPPER") {
		t.Fatal("ClassSeq conflated lowercase and uppercase shapes")
	}
	if ClassSeq("abc123") == ClassSeq("123abc") {
		t.Fatal("ClassSeq conflated different run orders")
	}
}

func TestClassSeqWithRunLengthsBuckets(t *testing.T) {
	// Run lengths 4+ bucket together, so these two must match.
	if ClassSeqWithRunLengths("abcde12") != ClassSeqWithRunLengths("abcdefgh34") {
		t.Fatal("bucketed run lengths should match for 4+ runs")
	}
	// Length-1 vs length-4 runs must not match.
	if ClassSeqWithRunLengths("a1") == ClassSeqWithRunLengths("abcd1") {
		t.Fatal("bucketed run lengths conflated 1-run with 4-run")
	}
}

func TestJaccard(t *testing.T) {
	tests := []struct {
		a, b []string
		want float64
	}{
		{a: []string{"x", "y"}, b: []string{"x", "y"}, want: 1},
		{a: []string{"x"}, b: []string{"y"}, want: 0},
		{a: []string{"x", "y"}, b: []string{"y", "z"}, want: 1.0 / 3.0},
		{a: nil, b: nil, want: 1},
		{a: []string{"x"}, b: nil, want: 0},
	}
	for _, tt := range tests {
		if got := texttest.Jaccard(tt.a, tt.b); got != tt.want {
			t.Fatalf("texttest.Jaccard(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

// Property: tokenization output contains only lowercase letters and digits.
func TestTokenizeAlnumProperty(t *testing.T) {
	prop := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
			for _, r := range tok {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					return false
				}
				// Lower-cased output: any remaining uppercase rune must
				// be one with no lowercase mapping (e.g. math letters).
				if unicode.ToLower(r) != r {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: shingle count is max(1, len-n+1) for non-empty strings.
func TestShinglesCountProperty(t *testing.T) {
	prop := func(s string) bool {
		const n = 3
		runes := []rune(s)
		got := len(texttest.Shingles(s, n))
		if len(runes) == 0 {
			return got == 0
		}
		want := len(runes) - n + 1
		if want < 1 {
			want = 1
		}
		return got == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Jaccard is symmetric and within [0, 1].
func TestJaccardSymmetryProperty(t *testing.T) {
	prop := func(a, b []string) bool {
		x := texttest.Jaccard(a, b)
		y := texttest.Jaccard(b, a)
		return x == y && x >= 0 && x <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ClassSeq is deterministic and never longer than its input rune
// count (it only collapses runs).
func TestClassSeqLengthProperty(t *testing.T) {
	prop := func(s string) bool {
		seq := ClassSeq(s)
		if seq != ClassSeq(s) {
			return false
		}
		return len([]rune(seq)) <= len([]rune(s))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// simTexts collects the texts the labeler normalizes from a small
// simulated world: every tweet of two hours and its author's description.
func simTexts(tb testing.TB) (tweets, descs []string) {
	tb.Helper()
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 2000
	cfg.OrganicTweetsPerHour = 400
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	e := socialnet.NewEngine(w)
	e.Subscribe(func(tw *socialnet.Tweet) {
		tweets = append(tweets, tw.Text)
		descs = append(descs, w.Account(tw.AuthorID).Description)
	})
	e.RunHours(2)
	return tweets, descs
}

// BenchmarkNormalize normalizes a simulated stream's tweets (tweet
// flavour) and their authors' descriptions (description flavour) in one
// pass per text, and reports the pass-per-step reference's time over it as
// speedup-vs-reference, with allocations per text for both.
func BenchmarkNormalize(b *testing.B) {
	tweets, descs := simTexts(b)
	texts := len(tweets) + len(descs)
	perText := func(before, after *runtime.MemStats, runs int) float64 {
		return float64(after.Mallocs-before.Mallocs) / float64(runs*texts)
	}
	var before, after runtime.MemStats
	refOnce := func() time.Duration {
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := range tweets {
			referenceNormalize(tweets[i], true)
			referenceNormalize(descs[i], false)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		return elapsed
	}
	refOnce() // warm caches
	const refRuns = 3
	var ref time.Duration
	var refAllocs float64
	for i := 0; i < refRuns; i++ {
		ref += refOnce() / refRuns
		refAllocs += perText(&before, &after, refRuns)
	}

	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range tweets {
			NormalizeTweet(tweets[j])
			NormalizeDescription(descs[j])
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if per := b.Elapsed() / time.Duration(b.N); per > 0 {
		b.ReportMetric(ref.Seconds()/per.Seconds(), "speedup-vs-reference")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*texts), "ns/text")
	b.ReportMetric(perText(&before, &after, b.N), "allocs/text")
	b.ReportMetric(refAllocs, "ref-allocs/text")
}
