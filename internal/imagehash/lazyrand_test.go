package imagehash

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// lazySourceSeeds are the seeds whose reduction Seed special-cases or
// could get wrong: zero (replaced by 89482311), the replacement itself,
// ±1, ±(2³¹−1) (which reduce to zero), ±2³¹, and the int64 extremes.
var lazySourceSeeds = []int64{
	0, 1, -1, 89482311, lehmerMod, -lehmerMod, lehmerMod - 1, lehmerMod + 1,
	1 << 31, -(1 << 31), math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	1234567890123, -987654321,
}

// newLazyRand returns a Rand over a lazySource seeded with seed.
func newLazyRand(seed int64) *rand.Rand {
	src := &lazySource{}
	src.Seed(seed)
	return rand.New(src)
}

func TestLazySourceMatchesMathRand(t *testing.T) {
	// 2,500 draws wrap the 607-word register four times, so words
	// computed lazily are read again after being overwritten by feedback.
	const draws = 2500
	for _, seed := range lazySourceSeeds {
		got, want := newLazyRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, draw %d: Uint64 %#x, math/rand %#x", seed, i, g, w)
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d, draw %d: Int63 %d, math/rand %d", seed, draws, g, w)
		}
	}
}

// applyOps runs the same op sequence on got and want and reports the first
// result that differs. Each op byte picks a method (low three bits) and a
// repeat count or argument (the rest); op 7 re-seeds both.
func applyOps(t *testing.T, got, want *rand.Rand, seed int64, ops []byte) {
	t.Helper()
	fail := func(i int, op byte, g, w any) {
		t.Fatalf("seed %d, op %d (%#x): got %v, math/rand %v", seed, i, op, g, w)
	}
	for i, op := range ops {
		n := int(op>>3) + 1 // 1..32
		switch op & 7 {
		case 0:
			for range n {
				if g, w := got.Int63(), want.Int63(); g != w {
					fail(i, op, g, w)
				}
			}
		case 1:
			for range n {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					fail(i, op, g, w)
				}
			}
		case 2:
			for range n {
				if g, w := got.Intn(len(avatarLevels)), want.Intn(len(avatarLevels)); g != w {
					fail(i, op, g, w)
				}
			}
		case 3:
			if g, w := got.Intn(n*1000003), want.Intn(n*1000003); g != w {
				fail(i, op, g, w)
			}
		case 4:
			for range n {
				if g, w := got.Float64(), want.Float64(); g != w {
					fail(i, op, g, w)
				}
			}
		case 5:
			g, w := got.Perm(n), want.Perm(n)
			for k := range g {
				if g[k] != w[k] {
					fail(i, op, g, w)
				}
			}
		case 6:
			for range n * 20 {
				if g, w := got.Int31(), want.Int31(); g != w {
					fail(i, op, g, w)
				}
			}
		case 7:
			seed += int64(op)
			got.Seed(seed)
			want.Seed(seed)
		}
	}
}

func TestLazySourceMixedDraws(t *testing.T) {
	// 200 ops average well past 1,214 draws, so the mix crosses the
	// register's second wrap.
	ops := make([]byte, 200)
	r := rand.New(rand.NewSource(7))
	for _, seed := range lazySourceSeeds {
		for i := range ops {
			ops[i] = byte(r.Intn(256))
			if ops[i]&7 == 7 {
				ops[i]-- // no re-seeds: keep drawing from seed
			}
		}
		applyOps(t, newLazyRand(seed), rand.New(rand.NewSource(seed)), seed, ops)
	}
}

func TestLazySourceReseeded(t *testing.T) {
	// One source re-seeded many times, reading a different number of
	// draws from each seed: a word left over from an earlier seed that
	// was not recomputed would show as a mismatch.
	src := &lazySource{}
	got := rand.New(src)
	counts := []int{0, 1, 81, 700, 3, 1300, 606, 607, 608}
	for k := 0; k < 300; k++ {
		seed := int64(k*7919) - 1000
		if k < len(lazySourceSeeds) {
			seed = lazySourceSeeds[k]
		}
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for i := range counts[k%len(counts)] {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("re-seed %d (seed %d), draw %d: %#x, math/rand %#x", k, seed, i, g, w)
			}
		}
	}
}

func TestLazySourceStampWraps(t *testing.T) {
	src := &lazySource{}
	got := rand.New(src)
	draw := func(seed int64) {
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 700; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d at stamp %d, draw %d: %#x, math/rand %#x", seed, src.stamp, i, g, w)
			}
		}
	}
	draw(5) // stamps every word 1
	// As if 2³²−2 more seeds had read nothing: the words seed 5 stamped
	// would look current to seed 7 once the stamp wraps back to 1.
	src.stamp = math.MaxUint32
	draw(7)
	draw(5)
}

func FuzzLazySource(f *testing.F) {
	for _, seed := range lazySourceSeeds {
		f.Add(seed, []byte{0x02, 0xfa, 0x0d, 0xf9, 0x3c})
	}
	long := make([]byte, 120)
	for i := range long {
		long[i] = byte(i*37) &^ 1 // no re-seed ops; ≈ 2,000 draws
	}
	f.Add(int64(42), long)
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		applyOps(t, newLazyRand(seed), rand.New(rand.NewSource(seed)), seed, ops)
	})
}

// BenchmarkSeed times what one avatar costs its generator — a re-seed
// and 81 Intn(5) draws — on lazySource, and reports the speedup over
// math/rand's source doing the same.
func BenchmarkSeed(b *testing.B) {
	avatar := func(rng *rand.Rand, seeds int) {
		for i := 0; i < seeds; i++ {
			rng.Seed(int64(i))
			for range thumbSize * thumbSize {
				rng.Intn(len(avatarLevels))
			}
		}
	}
	const refSeeds = 2000
	ref := rand.New(rand.NewSource(0))
	avatar(ref, refSeeds) // warm caches
	start := time.Now()
	avatar(ref, refSeeds)
	refPer := time.Since(start) / refSeeds

	rng := rand.New(&lazySource{})
	b.ResetTimer()
	avatar(rng, b.N)
	if per := b.Elapsed() / time.Duration(b.N); per > 0 {
		b.ReportMetric(refPer.Seconds()/per.Seconds(), "speedup-vs-reference")
	}
}
