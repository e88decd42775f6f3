package minhash

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil/texttest"
)

func newScheme(t *testing.T, n int) *Scheme {
	t.Helper()
	return NewScheme(n, rand.New(rand.NewSource(1)))
}

func TestSignDeterministic(t *testing.T) {
	s := newScheme(t, 64)
	sh := texttest.Shingles("the quick brown fox", 3)
	a, b := s.Sign(sh), s.Sign(sh)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Sign is not deterministic")
		}
	}
}

func TestIdenticalSetsHaveSimilarityOne(t *testing.T) {
	s := newScheme(t, 64)
	sh := texttest.Shingles("follow me for free bitcoin", 3)
	if got := texttest.Similarity(s.Sign(sh), s.Sign(sh)); got != 1 {
		t.Fatalf("Similarity of identical sets = %v, want 1", got)
	}
}

func TestDisjointSetsHaveLowSimilarity(t *testing.T) {
	s := newScheme(t, 128)
	a := s.Sign(texttest.Shingles("abcdefghijklmnop", 3))
	b := s.Sign(texttest.Shingles("0123456789012345", 3))
	if got := texttest.Similarity(a, b); got > 0.2 {
		t.Fatalf("Similarity of disjoint sets = %v, want near 0", got)
	}
}

func TestSimilarityEstimatesJaccard(t *testing.T) {
	// Two strings sharing roughly half their shingles should have
	// MinHash similarity near their true Jaccard similarity.
	s := newScheme(t, 256)
	x := "spam campaign text template number one"
	y := "spam campaign text template number two"
	shX := texttest.Shingles(x, 3)
	shY := texttest.Shingles(y, 3)
	trueJ := texttest.Jaccard(shX, shY)
	est := texttest.Similarity(s.Sign(shX), s.Sign(shY))
	if math.Abs(est-trueJ) > 0.12 {
		t.Fatalf("estimate %v too far from true Jaccard %v", est, trueJ)
	}
}

func TestEmptySetsMatchOnlyEmptySets(t *testing.T) {
	s := newScheme(t, 32)
	empty := s.Sign(nil)
	other := s.Sign(texttest.Shingles("hello world", 3))
	if got := texttest.Similarity(empty, s.Sign(nil)); got != 1 {
		t.Fatalf("empty vs empty similarity = %v, want 1", got)
	}
	if got := texttest.Similarity(empty, other); got != 0 {
		t.Fatalf("empty vs non-empty similarity = %v, want 0", got)
	}
}

func TestSimilarityLengthMismatch(t *testing.T) {
	if got := texttest.Similarity(Signature{1, 2}, Signature{1}); got != 0 {
		t.Fatalf("length mismatch similarity = %v, want 0", got)
	}
	if got := texttest.Similarity(nil, nil); got != 0 {
		t.Fatalf("nil signatures similarity = %v, want 0", got)
	}
}

func TestNewSchemeClampsSize(t *testing.T) {
	s := NewScheme(0, rand.New(rand.NewSource(1)))
	if s.Size() != 1 {
		t.Fatalf("Size = %d, want clamped to 1", s.Size())
	}
}

func TestIndexFindsNearDuplicates(t *testing.T) {
	const (
		bands = 16
		rows  = 4
	)
	s := newScheme(t, bands*rows)
	ix := NewIndex(bands, rows)

	base := "limited offer click here to win a free iphone today"
	variants := []string{
		base,
		"limited offer click here to win a free iphone now!!",
		"limited offer click right here to win a free iphone today",
	}
	ids := make([]int, len(variants))
	for i, v := range variants {
		ids[i] = ix.Add(s.Sign(texttest.Shingles(textutil.NormalizeDescription(v), 3)))
	}
	unrelated := ix.Add(s.Sign(texttest.Shingles("completely different biography text", 3)))

	cands := ix.AppendCandidates(nil, ix.Signature(ids[0]), 0)
	found := make(map[int]bool)
	for _, c := range cands {
		found[c.ID] = true
	}
	if !found[ids[1]] || !found[ids[2]] {
		t.Fatalf("near-duplicates not in candidates: %v", cands)
	}
	if found[unrelated] {
		t.Fatal("unrelated description appeared as candidate")
	}
}

func TestIndexSignatureOutOfRange(t *testing.T) {
	ix := NewIndex(2, 2)
	if got := ix.Signature(-1); got != nil {
		t.Fatal("Signature(-1) should be nil")
	}
	if got := ix.Signature(0); got != nil {
		t.Fatal("Signature past end should be nil")
	}
}

func TestIndexLen(t *testing.T) {
	s := newScheme(t, 8)
	ix := NewIndex(2, 4)
	if ix.Len() != 0 {
		t.Fatal("new index should be empty")
	}
	ix.Add(s.Sign(texttest.Shingles("abc", 3)))
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ix.Len())
	}
}

func TestIndexClampsBandsRows(t *testing.T) {
	ix := NewIndex(0, 0)
	if ix.bands != 1 || ix.rows != 1 {
		t.Fatalf("bands/rows = %d/%d, want clamped to 1/1", ix.bands, ix.rows)
	}
}

// Property: similarity is symmetric and bounded in [0, 1].
func TestSimilarityBoundsProperty(t *testing.T) {
	s := NewScheme(32, rand.New(rand.NewSource(2)))
	prop := func(x, y string) bool {
		a := s.Sign(texttest.Shingles(x, 3))
		b := s.Sign(texttest.Shingles(y, 3))
		sim := texttest.Similarity(a, b)
		return sim == texttest.Similarity(b, a) && sim >= 0 && sim <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a superset's signature components are ≤ the subset's (adding
// shingles can only lower minima).
func TestSignMonotoneProperty(t *testing.T) {
	s := NewScheme(32, rand.New(rand.NewSource(3)))
	prop := func(x, extra string) bool {
		base := texttest.Shingles(x, 3)
		super := append(append([]string{}, base...), texttest.Shingles(extra, 3)...)
		a, b := s.Sign(base), s.Sign(super)
		for i := range a {
			if b[i] > a[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSign(b *testing.B) {
	s := NewScheme(64, rand.New(rand.NewSource(1)))
	sh := texttest.Shingles("a moderately long user description used for benchmarking minhash", 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Sign(sh)
	}
}
