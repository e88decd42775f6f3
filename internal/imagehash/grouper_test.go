package imagehash

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// linearGrouper is the grouping Grouper must reproduce: a scan of every
// representative in id order, the first within the threshold winning.
type linearGrouper struct {
	threshold int
	reps      []Hash
}

func (g *linearGrouper) add(h Hash) int {
	for id, rep := range g.reps {
		if rep.Distance(h) <= g.threshold {
			return id
		}
	}
	g.reps = append(g.reps, h)
	return len(g.reps) - 1
}

// flip returns h with bit p inverted, p counted from the top of Hi as the
// block layout counts it: bits 64 to 127 are Lo's.
func flip(h Hash, p int) Hash {
	if p < 64 {
		h.Hi ^= 1 << (63 - p)
	} else {
		h.Lo ^= 1 << (127 - p)
	}
	return h
}

func randomHash(rng *rand.Rand) Hash { return Hash{Hi: rng.Uint64(), Lo: rng.Uint64()} }

// flipRandom flips k distinct random bits of h.
func flipRandom(h Hash, k int, rng *rand.Rand) Hash {
	for _, p := range rng.Perm(128)[:k] {
		h = flip(h, p)
	}
	return h
}

// randomStream is n independent uniform hashes: nearly every one opens a
// group at small thresholds.
func randomStream(rng *rand.Rand, n int) []Hash {
	out := make([]Hash, n)
	for i := range out {
		out[i] = randomHash(rng)
	}
	return out
}

// clusteredStream is n hashes around a few hundred centres, each 0 to 9
// bits away from its centre, so groups sit near the threshold of one
// another and a hash is often within it of several representatives.
func clusteredStream(rng *rand.Rand, n int) []Hash {
	centres := randomStream(rng, 300)
	out := make([]Hash, n)
	for i := range out {
		out[i] = flipRandom(centres[rng.Intn(len(centres))], rng.Intn(10), rng)
	}
	return out
}

// adversarialStream is built against g's block layout. Around each of a
// few reps it places hashes at every distance 0–7: with the flips in
// distinct blocks (leaving as few blocks equal as the distance allows), all
// in one block, and on both sides of every block boundary and of bit 64.
func adversarialStream(rng *rand.Rand, g *Grouper) []Hash {
	cuts := []int{64}
	for _, bl := range g.blocks {
		cuts = append(cuts, int(bl.off))
	}
	var out []Hash
	for r := 0; r < 8; r++ {
		rep := randomHash(rng)
		out = append(out, rep)
		for d := 0; d <= 7; d++ {
			// Flips in distinct blocks, as far as there are blocks.
			h := rep
			for i := 0; i < d; i++ {
				if len(g.blocks) == 0 {
					h = flip(h, rng.Intn(128))
					continue
				}
				bl := g.blocks[(r+i)%len(g.blocks)]
				h = flip(h, int(bl.off)+rng.Intn(int(bl.n)))
			}
			out = append(out, h)
			// Every flip in the first bits.
			h = rep
			for i := 0; i < d; i++ {
				h = flip(h, i)
			}
			out = append(out, h)
			// Flips straddling each cut: bits cut-1 and cut, then
			// outwards on both sides.
			for _, c := range cuts {
				h = rep
				for i := 0; i < d; i++ {
					p := c + i/2
					if i%2 == 0 {
						p = c - 1 - i/2
					}
					h = flip(h, (p+128)%128)
				}
				out = append(out, h)
			}
		}
	}
	// Shuffled, reps no longer come first: later hashes meet earlier ones
	// from every side.
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// grouperThresholds are the thresholds the differential tests sweep: one
// bit, the paper's, wider ones, the last with a block layout, and two
// with none.
var grouperThresholds = []int{1, 5, 8, 63, 128, 200}

// grouperStreams returns the named streams for a grouper at threshold t.
func grouperStreams(t int) map[string][]Hash {
	rng := rand.New(rand.NewSource(int64(t)))
	return map[string][]Hash{
		"random":      randomStream(rng, 3000),
		"clustered":   clusteredStream(rng, 5000),
		"adversarial": adversarialStream(rng, NewGrouper(t)),
	}
}

// TestGrouperMatchesLinearScan feeds every stream to the Grouper and the
// linear scan at every threshold: every id must agree.
func TestGrouperMatchesLinearScan(t *testing.T) {
	for _, th := range grouperThresholds {
		for name, stream := range grouperStreams(th) {
			g, ref := NewGrouper(th), &linearGrouper{threshold: th}
			joins := 0
			for i, h := range stream {
				groups := len(ref.reps)
				got, want := g.Add(h), ref.add(h)
				if got != want {
					t.Fatalf("t=%d %s hash %d (%v): Add = %d, linear scan %d", th, name, i, h, got, want)
				}
				if len(ref.reps) == groups {
					joins++
				}
			}
			if g.Len() != len(ref.reps) {
				t.Fatalf("t=%d %s: %d groups, linear scan %d", th, name, g.Len(), len(ref.reps))
			}
			if joins == 0 && name != "random" {
				t.Fatalf("t=%d %s: no hash joined a group; the stream tests nothing", th, name)
			}
			if th >= 128 && g.Checks() != 0 {
				t.Fatalf("t=%d: %d distance checks, want none", th, g.Checks())
			}
		}
	}
}

// TestGrouperBlockLayout pins the paper threshold's layout: six blocks of
// 22, 22, 21, 21, 21 and 21 bits covering the hash once, the third
// straddling the Hi/Lo boundary.
func TestGrouperBlockLayout(t *testing.T) {
	g := NewGrouper(DefaultThreshold)
	want := []block{{0, 22}, {22, 22}, {44, 21}, {65, 21}, {86, 21}, {107, 21}}
	if fmt.Sprint(g.blocks) != fmt.Sprint(want) {
		t.Fatalf("blocks = %v, want %v", g.blocks, want)
	}
	h := Hash{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	if got := g.blocks[2].value(h); got != (h.Hi&(1<<20-1))<<1|h.Lo>>63 {
		t.Fatalf("straddling block value = %#x", got)
	}
	for _, th := range []int{1, 5, 8, 63, 127} {
		g := NewGrouper(th)
		off := uint(0)
		for _, bl := range g.blocks {
			if bl.off != off || bl.n < 1 || bl.n > 64 {
				t.Fatalf("t=%d: block %v after %d bits", th, bl, off)
			}
			off += bl.n
		}
		if len(g.blocks) != th+1 || off != 128 {
			t.Fatalf("t=%d: %d blocks over %d bits", th, len(g.blocks), off)
		}
	}
}

// TestGrouperSetRepsResumes cuts each stream in two: a grouper restored
// with SetReps from the first half's Reps must assign the second half as
// the uninterrupted grouper does, whatever it held before the restore.
func TestGrouperSetRepsResumes(t *testing.T) {
	for _, th := range grouperThresholds {
		for name, stream := range grouperStreams(th) {
			whole := NewGrouper(th)
			cut := len(stream) / 2
			for _, h := range stream[:cut] {
				whole.Add(h)
			}
			resumed := NewGrouper(th)
			for _, h := range stream[cut:] {
				resumed.Add(h) // state the restore must discard
			}
			resumed.SetReps(whole.Reps())
			for i, h := range stream[cut:] {
				if got, want := resumed.Add(h), whole.Add(h); got != want {
					t.Fatalf("t=%d %s hash %d after restore: Add = %d, uninterrupted %d", th, name, cut+i, got, want)
				}
			}
		}
	}
}

// TestGrouperAllocs: a hash that joins a group allocates nothing, and a
// run of fresh groups allocates only the amortized growth of the tables.
func TestGrouperAllocs(t *testing.T) {
	const n = 10_000
	rng := rand.New(rand.NewSource(9))
	fresh := randomStream(rng, 2*n)
	g := NewGrouper(DefaultThreshold)
	for _, h := range fresh[:n] {
		g.Add(h)
	}
	near := make([]Hash, n)
	for i := range near {
		near[i] = flipRandom(fresh[i], 3, rng)
	}
	i := 0
	if got := testing.AllocsPerRun(n, func() { g.Add(near[i%n]); i++ }); got != 0 {
		t.Errorf("a matching Add allocates %v times, want 0", got)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, h := range fresh[n:] {
		g.Add(h)
	}
	runtime.ReadMemStats(&after)
	if groups := g.Len(); groups != 2*n {
		t.Fatalf("%d groups from %d random hashes", groups, 2*n)
	}
	if per := float64(after.Mallocs-before.Mallocs) / n; per > 0.05 {
		t.Errorf("fresh Adds allocate %.3f times each, want ≤ 0.05", per)
	}
}

// BenchmarkGrouperAdd groups a campaign-shaped stream at the paper's
// threshold: 20k hashes, a third of them variants of earlier ones within
// 4 bits. It reports the distance checks per Add that the block tables
// leave, beside the representatives per Add that a linear scan would have
// before it (it checks them all for a hash that opens a group).
func BenchmarkGrouperAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	stream := make([]Hash, 20_000)
	for i := range stream {
		if i > 0 && rng.Intn(3) == 0 {
			stream[i] = flipRandom(stream[rng.Intn(i)], rng.Intn(5), rng)
		} else {
			stream[i] = randomHash(rng)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGrouper(DefaultThreshold)
		reps := 0
		for _, h := range stream {
			reps += g.Len()
			g.Add(h)
		}
		b.ReportMetric(float64(g.Checks())/float64(len(stream)), "checks/add")
		b.ReportMetric(float64(reps)/float64(len(stream)), "reps/add")
	}
}
