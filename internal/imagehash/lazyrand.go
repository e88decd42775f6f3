package imagehash

// lazySource is a rand.Source64 that yields exactly math/rand's rngSource
// sequence (an additive lagged Fibonacci generator over 607 words) but
// seeds in O(1). rngSource.Seed runs 1,841 steps of the Lehmer generator
// x ← 48271·x mod (2³¹−1) to fill all 607 words; an avatar then reads 81
// draws, which touch about 160 of them. Step n of that generator is
// x₀·48271ⁿ mod (2³¹−1), so word i — built from steps 21+3i, 22+3i and
// 23+3i — can be computed directly when it is first read. Seed stores x₀
// and bumps a stamp; a word whose stamp is stale is computed from x₀.
//
// It is not safe for concurrent use.
type lazySource struct {
	x0        uint64 // the reduced seed, in [1, lehmerMod)
	tap, feed int
	stamp     uint32
	// stamps[i] == stamp marks vec[i] as current for this seed.
	stamps [rngLen]uint32
	vec    [rngLen]int64
}

const (
	// rngLen and rngTap are rngSource's register length and tap.
	rngLen = 607
	rngTap = 273
	// lehmerMod is the Mersenne prime 2³¹−1 the seeding generator works
	// modulo; lehmerMul is its multiplier.
	lehmerMod = 1<<31 - 1
	lehmerMul = 48271
	// lehmerSkip is the number of steps Seed discards before word 0.
	lehmerSkip = 21
)

// seedPowers[j] is 48271^(lehmerSkip+j) mod (2³¹−1): word i of the state
// uses seedPowers[3i], seedPowers[3i+1] and seedPowers[3i+2].
var seedPowers = func() (p [3 * rngLen]uint64) {
	x := uint64(1)
	for range lehmerSkip {
		x = mulMod(x, lehmerMul)
	}
	for j := range p {
		p[j] = x
		x = mulMod(x, lehmerMul)
	}
	return p
}()

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹, folding the 62-bit
// product at bit 31 instead of dividing (2³¹ ≡ 1).
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&lehmerMod + p>>31
	if r >= lehmerMod {
		r -= lehmerMod
	}
	return r
}

// Seed resets the generator to the state rngSource.Seed(seed) produces.
func (s *lazySource) Seed(seed int64) {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	s.stamp++
	if s.stamp == 0 {
		// The stamp wrapped: words last written 2³² seeds ago would
		// look current.
		clear(s.stamps[:])
		s.stamp = 1
	}
}

// word returns state word i, computing it from the seed on first read.
func (s *lazySource) word(i int) int64 {
	if s.stamps[i] != s.stamp {
		p := seedPowers[3*i : 3*i+3]
		u := int64(mulMod(s.x0, p[0]))<<40 ^
			int64(mulMod(s.x0, p[1]))<<20 ^
			int64(mulMod(s.x0, p[2]))
		s.vec[i] = u ^ rngCooked[i]
		s.stamps[i] = s.stamp
	}
	return s.vec[i]
}

// Uint64 returns the next 64-bit draw.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next draw as a non-negative 63-bit integer.
func (s *lazySource) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}
