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

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil"
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
		if got, want := permute(reduce61(x), a, b), referencePermute(x, a, b); got != want {
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
				got, want := scheme.SignText(text, n), scheme.Sign(textutil.Shingles(text, n))
				if !slices.Equal(got, want) {
					t.Fatalf("SignText(%q, %d) differs from Sign(Shingles)", text, n)
				}
			}
		}
	})
}

// goldenTexts and the two constants below pin signatures across commits:
// checkpoints persist signatures verbatim, so a store written by an older
// build must meet identical signatures from a newer one. The constants were
// recorded by running Sign(textutil.Shingles(·, 3)) at commit 3a065b4, the
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
			"Sign":     func(text string) Signature { return s.Sign(textutil.Shingles(text, 3)) },
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

// TestIndexMatchesReference probes before every add, as the label store
// does, and once more against the full index, as batch clustering does.
func TestIndexMatchesReference(t *testing.T) {
	for _, shape := range []struct{ bands, rows, n int }{
		{16, 4, 3000}, {8, 2, 1000}, {5, 1, 300}, {1, 3, 300}, {40, 1, 300},
	} {
		rng := rand.New(rand.NewSource(int64(shape.bands*10 + shape.rows)))
		sigs := skewedSignatures(rng, shape.n, shape.bands, shape.rows)
		ix, ref := NewIndex(shape.bands, shape.rows), newReferenceIndex(shape.bands, shape.rows)
		check := func(when string, i int) {
			t.Helper()
			got, want := ix.Candidates(sigs[i]), ref.candidates(sigs[i])
			if !slices.Equal(got, want) {
				t.Fatalf("%dx%d %s signature %d: candidates %v, reference %v",
					shape.bands, shape.rows, when, i, got, want)
			}
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

// TestIndexWrongLengthSignature: a signature of the wrong length (a corrupt
// checkpoint or a foreign shard worker can deliver one) takes an id but
// never matches and is never matched, whatever its words.
func TestIndexWrongLengthSignature(t *testing.T) {
	ix := NewIndex(4, 2)
	full := Signature{1, 2, 3, 4, 5, 6, 7, 8}
	wrong := []Signature{nil, {}, {1}, {1, 2}, full[:7], append(slices.Clone(full), 9)}
	if id := ix.Add(full); id != 0 {
		t.Fatalf("first id = %d", id)
	}
	for i, sig := range wrong {
		if got := ix.Candidates(sig); got != nil {
			t.Fatalf("wrong-length probe %v has candidates %v", sig, got)
		}
		if id := ix.Add(sig); id != i+1 {
			t.Fatalf("Add(%v) = %d, want %d", sig, id, i+1)
		}
	}
	if got := ix.Candidates(full); !slices.Equal(got, []int{0}) {
		t.Fatalf("Candidates = %v, want only the well-formed signature", got)
	}
	if id := ix.Add(full); id != len(wrong)+1 {
		t.Fatalf("id after wrong-length adds = %d, want %d", id, len(wrong)+1)
	}
	if got := ix.Candidates(full); !slices.Equal(got, []int{0, len(wrong) + 1}) {
		t.Fatalf("Candidates = %v", got)
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
// every probe of a finished index at once, each equal to the serial answer.
func TestIndexConcurrentProbes(t *testing.T) {
	sigs := skewedSignatures(rand.New(rand.NewSource(3)), 400, 16, 4)
	ix := NewIndex(16, 4)
	for _, sig := range sigs {
		ix.Add(sig)
	}
	want := make([][]int, len(sigs))
	for i, sig := range sigs {
		want[i] = ix.Candidates(sig)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, sig := range sigs {
				if got := ix.Candidates(sig); !slices.Equal(got, want[i]) {
					t.Errorf("concurrent probe %d: %v, serial %v", i, got, want[i])
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
	i := 0
	if got := testing.AllocsPerRun(n, func() { _ = ix.Candidates(sigs[i%n]); i++ }); got > 1 {
		t.Errorf("a probe of a warm index allocates %v times, want at most 1 (its result)", got)
	}
	// AllocsPerRun reports the whole-number average, so growth of the
	// tables, which doubles them a few times over these adds, rounds away.
	i = n - 1 // the warm-up call adds one too
	if got := testing.AllocsPerRun(n, func() { ix.Add(sigs[i]); i++ }); got != 0 {
		t.Errorf("Add allocates %v times per call beyond amortized growth, want 0", got)
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

// BenchmarkIndexAddProbe is the label store's use of the index: probe, then
// add, over 10k campaign-skewed signatures.
func BenchmarkIndexAddProbe(b *testing.B) {
	sigs := skewedSignatures(rand.New(rand.NewSource(5)), 10_000, 16, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := NewIndex(16, 4)
		cands := 0
		for _, sig := range sigs {
			cands += len(ix.Candidates(sig))
			ix.Add(sig)
		}
		b.ReportMetric(float64(cands)/float64(len(sigs)), "cands/probe")
	}
}
