package minhash

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil/texttest"
)

// This file holds the near-duplicate kernel's differential tests: each fast
// path against the definition it replaced, kept here as the oracle.

// referencePermute is (a*x + b) mod p as the kernel computed it before the
// Mersenne fold: five % operations, x of any size.
func referencePermute(x, a, b uint64) uint64 {
	x %= _mersenne61
	hi, lo := bits.Mul64(a, x)
	r := (hi%_mersenne61)*8%_mersenne61 + lo%_mersenne61
	r %= _mersenne61
	r = (r + b) % _mersenne61
	return r
}

func TestPermuteMatchesReference(t *testing.T) {
	check := func(x, a, b uint64) {
		t.Helper()
		if got, want := permute(reduce61(x), a<<3, b), referencePermute(x, a, b); got != want {
			t.Fatalf("permute(x=%d, a=%d, b=%d) = %d, reference %d", x, a, b, got, want)
		}
	}
	const p = _mersenne61
	for _, x := range []uint64{0, 1, p - 1, p, p + 1, math.MaxUint64} {
		for _, a := range []uint64{1, p - 1} {
			for _, b := range []uint64{0, p - 1} {
				check(x, a, b)
			}
		}
	}
	// Triples drawn the way NewScheme and FNV produce them.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		check(rng.Uint64(), rng.Uint64()%(p-1)+1, rng.Uint64()%p)
	}
}

// simSpamTexts returns up to limit distinct spam tweet texts and spammer
// descriptions from a small simulated world: the sim's campaign templates as
// they reach the labeler.
func simSpamTexts(tb testing.TB, limit int) []string {
	tb.Helper()
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 400
	cfg.OrganicTweetsPerHour = 50
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	e := socialnet.NewEngine(w)
	seen := make(map[string]bool)
	var texts []string
	keep := func(s string) {
		if s != "" && !seen[s] && len(texts) < limit {
			seen[s] = true
			texts = append(texts, s)
		}
	}
	e.Subscribe(func(tw *socialnet.Tweet) {
		if tw.Spam {
			keep(tw.Text)
			keep(w.Account(tw.AuthorID).Description)
		}
	})
	e.RunHours(2)
	if len(texts) == 0 {
		tb.Fatal("the simulated world produced no spam")
	}
	return texts
}

// FuzzSignText holds the text kernel equal to the definition, Sign over
// Shingles, on raw and on normalized input at several widths.
func FuzzSignText(f *testing.F) {
	for _, s := range []string{
		"", "a", "ab", "abc", "abcd", "é", "日本", "日本語", "日本語の",
		"emoji 😀😃😄 party 🎉",
		"\xff", "a\xffb", "\xc3(", "\xed\xa0\x80", "\xf0\x9f\x98", "ok \ufffd literal",
		strings.Repeat("the quick brown fox ", 205), // 4 KiB
		longText(130), longText(1001),
	} {
		f.Add(s)
	}
	for _, s := range simSpamTexts(f, 12) {
		f.Add(s)
	}
	scheme := NewScheme(64, rand.New(rand.NewSource(1)))
	f.Fuzz(func(t *testing.T, s string) {
		for _, text := range []string{s, textutil.NormalizeDescription(s)} {
			for _, n := range []int{0, 1, 3, 5} {
				got, want := scheme.SignText(text, n), scheme.Sign(texttest.Shingles(text, n))
				if !slices.Equal(got, want) {
					t.Fatalf("SignText(%q, %d) differs from Sign(Shingles)", text, n)
				}
			}
		}
	})
}

// longText returns a text of the given number of runes that cycles
// through ASCII, 2-, 3- and 4-byte runes, an invalid byte (one rune of its
// own) and a space.
func longText(runes int) string {
	pieces := []string{"a", "é", "日", "😀", "\xff", " ", "z", "\xf0\x9f\x98"}
	var b strings.Builder
	for i, n := 0, 0; n < runes; i++ {
		p := pieces[i%len(pieces)]
		if p == "\xf0\x9f\x98" {
			n += 3 // a cut 4-byte rune is three invalid bytes
			if n > runes {
				break
			}
		} else {
			n++
		}
		b.WriteString(p)
	}
	return b.String()
}

// TestSignTextLong signs texts of hundreds to thousands of runes mixing
// every UTF-8 length with invalid bytes, at several widths.
func TestSignTextLong(t *testing.T) {
	s := NewScheme(64, rand.New(rand.NewSource(1)))
	for _, runes := range []int{127, 128, 129, 257, 1000, 4099} {
		text := longText(runes)
		if got := utf8.RuneCountInString(text); got < runes-2 || got > runes {
			t.Fatalf("longText(%d) has %d runes", runes, got)
		}
		for _, n := range []int{1, 3, 5} {
			if got, want := s.SignText(text, n), s.Sign(texttest.Shingles(text, n)); !slices.Equal(got, want) {
				t.Fatalf("SignText of %d runes, n=%d, differs from Sign(Shingles)", runes, n)
			}
		}
	}
	text := longText(1000)
	if got := testing.AllocsPerRun(100, func() { _ = s.SignText(text, 3) }); got != 1 {
		t.Fatalf("SignText of a long text allocates %v times per call, want 1", got)
	}
}

// goldenTexts and the two constants below pin signatures across commits:
// checkpoints persist signatures verbatim, so a store written by an older
// build must meet identical signatures from a newer one. The constants were
// recorded by running Sign(texttest.Shingles(·, 3)) at commit 3a065b4, the
// last one before SignText existed.
var goldenTexts = []string{
	"", "a", "ab", "abc", "abcd",
	"follow me for free bitcoin",
	"limited offer click here to win a free iphone today",
	"héllo wörld ünïcode",
	"日本語のテキストです",
	"emoji 😀😃😄 party 🎉",
	"bad\xffbytes\xc3(\xed\xa0\x80 here \ufffd",
	strings.Repeat("the quick brown fox jumps over the lazy dog ", 100),
}

func TestSignatureGolden(t *testing.T) {
	golden := map[int64]uint64{1: 0xd742661685fa14ed, 2: 0xe90c0276056edc3c}
	for seed, want := range golden {
		s := NewScheme(64, rand.New(rand.NewSource(seed)))
		for name, sign := range map[string]func(string) Signature{
			"SignText": func(text string) Signature { return s.SignText(text, 3) },
			"Sign":     func(text string) Signature { return s.Sign(texttest.Shingles(text, 3)) },
		} {
			h := fnv.New64a()
			var w [8]byte
			for _, text := range goldenTexts {
				for _, v := range sign(text) {
					binary.LittleEndian.PutUint64(w[:], v)
					h.Write(w[:])
				}
			}
			if got := h.Sum64(); got != want {
				t.Errorf("seed %d: %s signatures hash to %#x, recorded %#x", seed, name, got, want)
			}
		}
	}
}

func TestSignTextAllocs(t *testing.T) {
	s := NewScheme(64, rand.New(rand.NewSource(1)))
	text := "a moderately long üser description 😀 used for \xff benchmarking minhash"
	if got := testing.AllocsPerRun(100, func() { _ = s.SignText(text, 3) }); got != 1 {
		t.Fatalf("SignText allocates %v times per call, want 1 (the signature)", got)
	}
}

// TestAgreeAtLeastMatchesSimilarity holds the early-exit confirmation
// equal to comparing the full agreement fraction: every length 1–70, every
// agreement count with the disagreements at random positions, thresholds
// 0, 0.75, 0.85, 1, random ones, ones past both ends, NaN, and each exact
// boundary k/n with its float neighbours; plus unequal and empty lengths.
func TestAgreeAtLeastMatchesSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fixed := []float64{0, 0.75, 0.85, 1, 1.5, math.Inf(1), -0.25, math.Inf(-1), math.NaN(),
		math.Nextafter(0, 1), math.Nextafter(1, 2), math.Nextafter(0, -1)}
	check := func(a, b Signature, th float64) {
		t.Helper()
		want := texttest.Similarity(a, b) >= th
		if got := AgreeAtLeast(a, b, MinAgree(len(a), th)); got != want {
			t.Fatalf("AgreeAtLeast(len %d vs %d, agree %v, t=%v) = %v, want %v",
				len(a), len(b), texttest.Similarity(a, b), th, got, want)
		}
	}
	for n := 1; n <= 70; n++ {
		for k := 0; k <= n; k++ {
			a := make(Signature, n)
			b := make(Signature, n)
			for i := range a {
				a[i] = rng.Uint64()
				b[i] = a[i]
			}
			for _, i := range rng.Perm(n)[:n-k] {
				b[i] = ^a[i]
			}
			ths := append([]float64(nil), fixed...)
			for j := 0; j <= n; j++ {
				q := float64(j) / float64(n)
				ths = append(ths, q, math.Nextafter(q, 2), math.Nextafter(q, -1))
			}
			for j := 0; j < 8; j++ {
				ths = append(ths, rng.Float64(), rng.Float64()*3-1)
			}
			for _, th := range ths {
				check(a, b, th)
			}
		}
	}
	for _, th := range fixed {
		check(Signature{1, 2}, Signature{1}, th)
		check(Signature{1}, Signature{1, 2, 3}, th)
		check(nil, nil, th)
		check(Signature{}, Signature{}, th)
	}
}

// referenceIndex is the string-keyed banding index the flat one replaced:
// a map per band from the band's bytes to ids, and a per-probe seen set.
type referenceIndex struct {
	bands, rows int
	buckets     []map[string][]int
	n           int
}

func newReferenceIndex(bands, rows int) *referenceIndex {
	buckets := make([]map[string][]int, bands)
	for i := range buckets {
		buckets[i] = make(map[string][]int)
	}
	return &referenceIndex{bands: bands, rows: rows, buckets: buckets}
}

func (ix *referenceIndex) bandKey(sig Signature, band int) string {
	var buf []byte
	for _, v := range sig[band*ix.rows : (band+1)*ix.rows] {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	return string(buf)
}

func (ix *referenceIndex) add(sig Signature) {
	for b := 0; b < ix.bands; b++ {
		key := ix.bandKey(sig, b)
		ix.buckets[b][key] = append(ix.buckets[b][key], ix.n)
	}
	ix.n++
}

// candidates returns the reference's candidate set, sorted.
func (ix *referenceIndex) candidates(sig Signature) []int {
	seen := make(map[int]struct{})
	var out []int
	for b := 0; b < ix.bands; b++ {
		for _, id := range ix.buckets[b][ix.bandKey(sig, b)] {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				out = append(out, id)
			}
		}
	}
	slices.Sort(out)
	return out
}

// skewedSignatures draws n signatures the way a spam-heavy stream does: most
// are a campaign's signature with a few words redrawn, so they share bands
// with the rest of the campaign (and, for a word redrawn from the small
// alphabet, with other campaigns), the others are one of a kind.
func skewedSignatures(rng *rand.Rand, n, bands, rows int) []Signature {
	const campaigns = 256
	words := bands * rows
	draw := func() uint64 {
		if rng.Intn(4) == 0 {
			return uint64(rng.Intn(3)) // small alphabet, zero included
		}
		return rng.Uint64()
	}
	bases := make([]Signature, campaigns)
	for c := range bases {
		bases[c] = make(Signature, words)
		for i := range bases[c] {
			bases[c][i] = draw()
		}
	}
	sigs := make([]Signature, n)
	for i := range sigs {
		sig := make(Signature, words)
		if rng.Intn(10) < 7 {
			// Campaign sizes fall off: the largest holds a sixteenth of
			// the campaign signatures, the median a five-hundredth.
			u := rng.Float64()
			copy(sig, bases[int(campaigns*u*u)])
			for k := rng.Intn(words/4 + 1); k > 0; k-- {
				sig[rng.Intn(words)] = draw()
			}
		} else {
			for j := range sig {
				sig[j] = draw()
			}
		}
		sigs[i] = sig
	}
	return sigs
}

// candidateIDs returns the ids of cs, in order.
func candidateIDs(cs []Candidate) []int {
	ids := make([]int, len(cs))
	for i, c := range cs {
		ids[i] = c.ID
	}
	return ids
}

// confirmed returns the ids of the viable candidates in cs that agree with
// sig in at least need words: what label.join unites.
func (ix *Index) confirmed(cs []Candidate, sig Signature, need int) []int {
	var out []int
	for _, c := range cs {
		if c.Viable && AgreeAtLeast(sig, ix.Signature(c.ID), need) {
			out = append(out, c.ID)
		}
	}
	return out
}

// nibbleAgreements counts the words of a and b, of equal length, whose low
// four bits agree: the sketch bound, counted word by word.
func nibbleAgreements(a, b Signature) int {
	n := 0
	for i := range a {
		if a[i]&0xf == b[i]&0xf {
			n++
		}
	}
	return n
}

// checkProbe holds one AppendCandidates probe to the oracles: the ids are
// the reference index's candidates, each is viable exactly when its low
// nibbles agree in need words or more, and the viable ones that AgreeAtLeast
// confirms are the candidates it confirms. It returns how many candidates
// the probe made and how many of them were viable.
func checkProbe(t testing.TB, ix *Index, want []int, sig Signature, need int) (cands, viable int) {
	t.Helper()
	got := ix.AppendCandidates(nil, sig, need)
	if ids := candidateIDs(got); !slices.Equal(ids, want) {
		t.Fatalf("candidates %v, reference %v", ids, want)
	}
	for _, c := range got {
		if bound := nibbleAgreements(sig, ix.Signature(c.ID)) >= need; c.Viable != bound {
			t.Fatalf("candidate %d (need %d): viable %v, nibble bound %v", c.ID, need, c.Viable, bound)
		}
		if c.Viable {
			viable++
		}
	}
	if conf, match := ix.confirmed(got, sig, need), ix.matches(sig, need); !slices.Equal(conf, match) {
		t.Fatalf("need %d: confirmed %v, oracle matches %v", need, conf, match)
	}
	return len(got), viable
}

// TestIndexMatchesReference probes before every add, as the label store
// does, and once more against the full index, as batch clustering does.
func TestIndexMatchesReference(t *testing.T) {
	for _, shape := range []struct{ bands, rows, n int }{
		{16, 4, 3000}, {8, 2, 1000}, {5, 1, 300}, {1, 3, 300}, {40, 1, 300}, {6, 3, 300},
	} {
		rng := rand.New(rand.NewSource(int64(shape.bands*10 + shape.rows)))
		sigs := skewedSignatures(rng, shape.n, shape.bands, shape.rows)
		ix, ref := NewIndex(shape.bands, shape.rows), newReferenceIndex(shape.bands, shape.rows)
		words := shape.bands * shape.rows
		need := MinAgree(words, 0.75)
		check := func(when string, i int) {
			t.Helper()
			want := ref.candidates(sigs[i])
			if got := ix.Candidates(sigs[i]); !slices.Equal(got, want) {
				t.Fatalf("%dx%d %s signature %d: Candidates %v, reference %v",
					shape.bands, shape.rows, when, i, got, want)
			}
			checkProbe(t, ix, want, sigs[i], need)
		}
		for i, sig := range sigs {
			check("before adding", i)
			if id := ix.Add(sig); id != i {
				t.Fatalf("Add returned id %d, want %d", id, i)
			}
			ref.add(sig)
		}
		for i := range sigs {
			check("full index,", i)
		}
	}
}

// boundThresholds are the thresholds the sketch-bound tests sweep: both
// label thresholds, the ends, one past the top and NaN.
var boundThresholds = []float64{0, 0.5, 0.75, 0.85, 1, 1.01, math.NaN()}

// smallAlphabetSignatures draws n signatures whose words take nine values,
// 0–2 in the low nibble and 0–2 above it, so bands collide by chance and
// words that differ often share their low nibble.
func smallAlphabetSignatures(rng *rand.Rand, n, words int) []Signature {
	sigs := make([]Signature, n)
	for i := range sigs {
		sigs[i] = make(Signature, words)
		for j := range sigs[i] {
			sigs[i][j] = uint64(rng.Intn(3) | rng.Intn(3)<<4)
		}
	}
	return sigs
}

// TestSketchBoundNeverRefusesMatch probes streams before every add at each
// threshold: the candidates AgreeAtLeast confirms among the viable ones
// must be exactly those it confirms among all of them.
func TestSketchBoundNeverRefusesMatch(t *testing.T) {
	streams := []struct {
		name        string
		bands, rows int
		sigs        []Signature
	}{
		{"skewed 16x4", 16, 4, skewedSignatures(rand.New(rand.NewSource(11)), 1500, 16, 4)},
		{"skewed 6x3", 6, 3, skewedSignatures(rand.New(rand.NewSource(12)), 600, 6, 3)},
		{"small alphabet 16x4", 16, 4, smallAlphabetSignatures(rand.New(rand.NewSource(13)), 1500, 64)},
		{"small alphabet 9x2", 9, 2, smallAlphabetSignatures(rand.New(rand.NewSource(14)), 600, 18)},
	}
	for _, st := range streams {
		words := st.bands * st.rows
		for _, th := range boundThresholds {
			need := MinAgree(words, th)
			ix, ref := NewIndex(st.bands, st.rows), newReferenceIndex(st.bands, st.rows)
			cands, viable := 0, 0
			for _, sig := range st.sigs {
				c, v := checkProbe(t, ix, ref.candidates(sig), sig, need)
				cands += c
				viable += v
				ix.Add(sig)
				ref.add(sig)
			}
			if cands == 0 {
				t.Fatalf("%s: the stream makes no candidates", st.name)
			}
			t.Logf("%s τ=%v (need %d): %d candidates, %d viable", st.name, th, need, cands, viable)
		}
	}
}

// TestSketchBoundAtTheThreshold pairs a signature with copies that agree in
// k−1, k and k+1 of 64 words, k the least agreement the threshold needs,
// the disagreements inside the low nibble, outside it (which the bound
// cannot see) or half and half. Every copy shares the first band.
func TestSketchBoundAtTheThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const bands, rows = 16, 4
	const words = bands * rows
	flips := map[string]func(v uint64, j int) uint64{
		"inside":  func(v uint64, j int) uint64 { return v ^ 0x5 },
		"outside": func(v uint64, j int) uint64 { return v ^ 0x50 },
		"mixed": func(v uint64, j int) uint64 {
			if j%2 == 0 {
				return v ^ 0x1
			}
			return v ^ 1<<63
		},
	}
	for _, th := range boundThresholds {
		need := MinAgree(words, th)
		for _, k := range []int{need - 1, need, need + 1} {
			if k < rows || k > words {
				continue // the copy would share no band, or agree in more than all
			}
			for name, flip := range flips {
				base := make(Signature, words)
				for i := range base {
					base[i] = rng.Uint64()
				}
				sig := slices.Clone(base)
				for j, i := range rng.Perm(words - rows)[:words-k] {
					sig[rows+i] = flip(sig[rows+i], j)
				}
				ix := NewIndex(bands, rows)
				ix.Add(base)
				_, viable := checkProbe(t, ix, []int{0}, sig, need)
				// Mixed copies are viable as their nibble count says,
				// which checkProbe holds.
				if name != "mixed" && (viable == 1) != (name == "outside" && need <= words || k >= need) {
					t.Fatalf("τ=%v k=%d %s: viable %d", th, k, name, viable)
				}
			}
		}
	}
}

// FuzzAppendCandidates holds the probe to the oracles on signatures of
// eight words drawn from the fuzzer's bytes, so words share bands, low
// nibbles and high nibbles in every combination, at every need from none
// to one past all. A second index takes every signature through Join,
// which must append what AppendCandidates then Add gives.
func FuzzAppendCandidates(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x00\x01\x12\x03\x04\x15\x06\x17"), uint8(6))
	f.Add([]byte("aaaaaaaaaaaaaaaabbbbbbbbaaqaaaaa"), uint8(8))
	f.Add([]byte("\xf0\xf1\x00\x01\x02\x03\x04\x05\x00\x01\x00\x01\x02\x03\x04\x05"), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, needByte uint8) {
		const bands, rows = 4, 2
		const words = bands * rows
		need := int(needByte) % (words + 2)
		ix, jx, ref := NewIndex(bands, rows), NewIndex(bands, rows), newReferenceIndex(bands, rows)
		for ; len(data) >= words; data = data[words:] {
			sig := make(Signature, words)
			for i := range sig {
				sig[i] = uint64(data[i])
			}
			checkProbe(t, ix, ref.candidates(sig), sig, need)
			checkJoin(t, ix, jx, sig, need)
			ref.add(sig)
		}
	})
}

// checkJoin probes ix with AppendCandidates and then adds sig to it, and
// joins sig into jx, which has seen the same signatures: Join must append
// the same candidates after the same prefix, and give sig the same id.
func checkJoin(t testing.TB, ix, jx *Index, sig Signature, need int) {
	t.Helper()
	prefix := []Candidate{{-1, true}}
	want := ix.AppendCandidates(slices.Clone(prefix), sig, need)
	got := jx.Join(slices.Clone(prefix), sig, need)
	if !slices.Equal(got, want) {
		t.Fatalf("need %d: Join %v, AppendCandidates %v", need, got, want)
	}
	if id := ix.Add(sig); jx.Len() != id+1 {
		t.Fatalf("Join left %d signatures, Add %d", jx.Len(), id+1)
	}
}

// TestJoinMatchesProbeThenAdd runs the reference streams through Join at
// both label thresholds.
func TestJoinMatchesProbeThenAdd(t *testing.T) {
	for _, shape := range []struct{ bands, rows, n int }{{16, 4, 3000}, {6, 3, 300}, {40, 1, 300}} {
		sigs := skewedSignatures(rand.New(rand.NewSource(int64(shape.bands))), shape.n, shape.bands, shape.rows)
		for _, th := range []float64{0.75, 0.85} {
			need := MinAgree(shape.bands*shape.rows, th)
			ix, jx := NewIndex(shape.bands, shape.rows), NewIndex(shape.bands, shape.rows)
			for _, sig := range sigs {
				checkJoin(t, ix, jx, sig, need)
			}
		}
	}
}

// TestIndexWrongLengthSignature: a signature of the wrong length (a corrupt
// checkpoint or a foreign shard worker can deliver one) takes an id but
// never matches and is never matched, whatever its words.
func TestIndexWrongLengthSignature(t *testing.T) {
	ix := NewIndex(4, 2)
	full := Signature{1, 2, 3, 4, 5, 6, 7, 8}
	wrong := []Signature{nil, {}, {1}, {1, 2}, full[:7], append(slices.Clone(full), 9)}
	probe := func(sig Signature) []Candidate {
		t.Helper()
		got := ix.AppendCandidates(nil, sig, 0)
		if want := ix.Candidates(sig); !slices.Equal(candidateIDs(got), want) {
			t.Fatalf("probe %v: candidates %v, oracle %v", sig, got, want)
		}
		return got
	}
	if id := ix.Add(full); id != 0 {
		t.Fatalf("first id = %d", id)
	}
	jx := NewIndex(4, 2)
	jx.Join(nil, full, 0)
	for i, sig := range wrong {
		if got := probe(sig); got != nil {
			t.Fatalf("wrong-length probe %v has candidates %v", sig, got)
		}
		if got := jx.Join(nil, sig, 0); got != nil {
			t.Fatalf("wrong-length join %v has candidates %v", sig, got)
		}
		if id := ix.Add(sig); id != i+1 {
			t.Fatalf("Add(%v) = %d, want %d", sig, id, i+1)
		}
	}
	if got := jx.Join(nil, full, 0); !slices.Equal(got, []Candidate{{0, true}}) || jx.Len() != len(wrong)+2 {
		t.Fatalf("join after wrong-length joins: candidates %v, %d signatures", got, jx.Len())
	}
	if got := probe(full); !slices.Equal(got, []Candidate{{0, true}}) {
		t.Fatalf("candidates = %v, want only the well-formed signature", got)
	}
	if id := ix.Add(full); id != len(wrong)+1 {
		t.Fatalf("id after wrong-length adds = %d, want %d", id, len(wrong)+1)
	}
	if got := probe(full); !slices.Equal(got, []Candidate{{0, true}, {len(wrong) + 1, true}}) {
		t.Fatalf("candidates = %v", got)
	}
	// A probe appends to what dst already holds and leaves it alone.
	dst := []Candidate{{99, false}}
	if got := ix.AppendCandidates(dst, full, len(full)+1); !slices.Equal(got,
		[]Candidate{{99, false}, {0, false}, {len(wrong) + 1, false}}) {
		t.Fatalf("appended probe = %v", got)
	}
}

func TestNewIndexRejectsTallBands(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewIndex accepted rows above MaxRows")
		}
	}()
	NewIndex(4, MaxRows+1)
}

// TestIndexConcurrentProbes is the race pass's view of batch clustering:
// every probe of a finished index at once, each into its own buffer and
// each equal to the serial answer.
func TestIndexConcurrentProbes(t *testing.T) {
	sigs := skewedSignatures(rand.New(rand.NewSource(3)), 400, 16, 4)
	ix := NewIndex(16, 4)
	for _, sig := range sigs {
		ix.Add(sig)
	}
	need := MinAgree(64, 0.75)
	want := make([][]Candidate, len(sigs))
	for i, sig := range sigs {
		want[i] = ix.AppendCandidates(nil, sig, need)
		if ids := candidateIDs(want[i]); !slices.Equal(ids, ix.Candidates(sig)) {
			t.Fatalf("probe %d: candidates %v, oracle %v", i, ids, ix.Candidates(sig))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []Candidate
			for i, sig := range sigs {
				buf = ix.AppendCandidates(buf[:0], sig, need)
				if !slices.Equal(buf, want[i]) {
					t.Errorf("concurrent probe %d: %v, serial %v", i, buf, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestIndexAllocs(t *testing.T) {
	const n = 4000
	sigs := skewedSignatures(rand.New(rand.NewSource(4)), 2*n, 16, 4)
	ix := NewIndex(16, 4)
	for _, sig := range sigs[:n] {
		ix.Add(sig)
	}
	var buf []Candidate
	for _, sig := range sigs[:n] {
		buf = ix.AppendCandidates(buf[:0], sig, 48)
	}
	i := 0
	if got := testing.AllocsPerRun(n, func() { buf = ix.AppendCandidates(buf[:0], sigs[i%n], 48); i++ }); got != 0 {
		t.Errorf("a probe of a warm index into a warm buffer allocates %v times, want 0", got)
	}
	// AllocsPerRun reports the whole-number average, so growth of the
	// tables, which doubles them a few times over these adds, rounds away.
	i = n - 1 // the warm-up call adds one too
	if got := testing.AllocsPerRun(n/2, func() { ix.Add(sigs[i]); i++ }); got != 0 {
		t.Errorf("Add allocates %v times per call beyond amortized growth, want 0", got)
	}
	if got := testing.AllocsPerRun(n/2-1, func() { buf = ix.Join(buf[:0], sigs[i], 48); i++ }); got != 0 {
		t.Errorf("Join allocates %v times per call beyond amortized growth, want 0", got)
	}
}

func BenchmarkSignText(b *testing.B) {
	s := NewScheme(64, rand.New(rand.NewSource(1)))
	const text = "a moderately long user description used for benchmarking minhash"
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		_ = s.SignText(text, 3)
	}
}

// BenchmarkIndexAddProbe is the label store's use of the index: probe and
// add in one Join, then confirm the viable candidates at the tweet
// threshold, over 10k campaign-skewed signatures. cands/probe counts the candidates the probe
// walks, confirms/probe the AgreeAtLeast calls the sketch bound leaves.
func BenchmarkIndexAddProbe(b *testing.B) {
	sigs := skewedSignatures(rand.New(rand.NewSource(5)), 10_000, 16, 4)
	need := MinAgree(64, 0.75)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := NewIndex(16, 4)
		var buf []Candidate
		cands, confirms := 0, 0
		for _, sig := range sigs {
			buf = ix.Join(buf[:0], sig, need)
			cands += len(buf)
			for _, c := range buf {
				if c.Viable {
					confirms++
					_ = AgreeAtLeast(sig, ix.Signature(c.ID), need)
				}
			}
		}
		b.ReportMetric(float64(cands)/float64(len(sigs)), "cands/probe")
		b.ReportMetric(float64(confirms)/float64(len(sigs)), "confirms/probe")
	}
}
