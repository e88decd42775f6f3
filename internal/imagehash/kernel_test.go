package imagehash

import (
	"bytes"
	"math/rand"
	"testing"
)

// dHashReference is DHash over a freshly allocated reduce() thumbnail,
// the form DHash had before it reduced into a stack array.
func dHashReference(m *Image) Hash {
	t := reduce(m, thumbSize, thumbSize)
	var hi, lo uint64
	bit := 0
	for y := 0; y < thumbSize; y++ {
		for x := 0; x+1 < thumbSize; x++ {
			if t.At(x, y) > t.At(x+1, y) {
				hi |= 1 << uint(63-bit)
			}
			bit++
		}
	}
	bit = 0
	for y := 0; y+1 < thumbSize; y++ {
		for x := 0; x < thumbSize; x++ {
			if t.At(x, y) > t.At(x, y+1) {
				lo |= 1 << uint(63-bit)
			}
			bit++
		}
	}
	return Hash{Hi: hi, Lo: lo}
}

// perturbReference is Perturb as one function, drawing and editing in a
// single pass: the oracle for the DrawEdit/Apply split.
func perturbReference(m *Image, amplitude int, rng *rand.Rand) *Image {
	out := NewImage(m.W, m.H)
	copy(out.Pix, m.Pix)
	if amplitude <= 0 || m.W == 0 || m.H == 0 {
		return out
	}
	tx := rng.Intn(thumbSize)
	ty := rng.Intn(thumbSize)
	x0, x1 := tx*m.W/thumbSize, (tx+1)*m.W/thumbSize
	y0, y1 := ty*m.H/thumbSize, (ty+1)*m.H/thumbSize
	delta := rng.Intn(amplitude) + 1
	if rng.Intn(2) == 0 {
		delta = -delta
	}
	for y := y0; y < y1 && y < m.H; y++ {
		for x := x0; x < x1 && x < m.W; x++ {
			out.Set(x, y, clampByte(float64(int(out.At(x, y))+delta)))
		}
	}
	return out
}

func TestDHashMatchesReference(t *testing.T) {
	imgs := []*Image{NewImage(0, 0), NewImage(5, 3), Rescale(Synthesize(4), 48, 48)}
	for seed := int64(0); seed < 200; seed++ {
		imgs = append(imgs, Synthesize(seed))
	}
	for i, m := range imgs {
		if got, want := DHash(m), dHashReference(m); got != want {
			t.Fatalf("image %d (%d×%d): DHash %v, reference %v", i, m.W, m.H, got, want)
		}
	}
}

func TestDHashAllocatesNothing(t *testing.T) {
	m := Synthesize(1)
	if n := testing.AllocsPerRun(100, func() { _ = DHash(m) }); n != 0 {
		t.Fatalf("DHash allocates %v times per call, want 0", n)
	}
}

func TestSynthesizerMatchesSynthesize(t *testing.T) {
	s := NewSynthesizer()
	// Every seed after the first renders over the previous avatar, so a
	// pixel the synthesis failed to overwrite would show here.
	for seed := int64(-50); seed < 500; seed++ {
		got, want := s.Synthesize(seed), Synthesize(seed)
		if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("seed %d: scratch synthesis differs from Synthesize", seed)
		}
	}
	// Re-seeding replays a seed exactly after other seeds used the scratch.
	first := append([]uint8(nil), s.Synthesize(7).Pix...)
	s.Synthesize(8)
	Perturb(s.Synthesize(9), 40, rand.New(rand.NewSource(1)))
	if !bytes.Equal(s.Synthesize(7).Pix, first) {
		t.Fatal("re-seeded synthesis differs after the scratch was reused")
	}
}

func TestSynthesizerAllocatesNothing(t *testing.T) {
	s := NewSynthesizer()
	seed := int64(0)
	n := testing.AllocsPerRun(100, func() {
		seed++
		_ = DHash(s.Synthesize(seed))
	})
	if n != 0 {
		t.Fatalf("scratch synthesis + DHash allocates %v times per avatar, want 0", n)
	}
	e := Edit{TX: 3, TY: 4, Delta: -40}
	n = testing.AllocsPerRun(100, func() {
		seed++
		_ = s.DHash(seed, e)
	})
	if n != 0 {
		t.Fatalf("grid DHash allocates %v times per avatar, want 0", n)
	}
}

// TestSynthesizerDHashMatchesPixels holds the grid path to the pixels it
// skips: for every cell and every level drawn there, and every edit of
// that cell with Delta in ±1..±255 (so both clamps are reached from every
// level), the grid dHash equals DHash of the painted avatar after
// Edit.Apply. The painted avatar comes from math/rand through Synthesize,
// so the lazily seeded source is checked along the way.
func TestSynthesizerDHashMatchesPixels(t *testing.T) {
	s := NewSynthesizer()
	// first[cell][level] is the first seed that draws level at cell.
	var first [thumbSize * thumbSize][len(avatarLevels)]int64
	var have [thumbSize * thumbSize][len(avatarLevels)]bool
	for seed, missing := int64(0), len(first)*len(avatarLevels); missing > 0; seed++ {
		s.draw(seed)
		for cell, v := range s.grid {
			l := bytes.IndexByte(avatarLevels[:], v)
			if !have[cell][l] {
				have[cell][l], first[cell][l] = true, seed
				missing--
			}
		}
	}
	m := NewImage(avatarSize, avatarSize)
	for cell := range first {
		for l, seed := range first[cell] {
			base := Synthesize(seed)
			if got, want := s.DHash(seed, Edit{}), DHash(base); got != want {
				t.Fatalf("seed %d unedited: grid %v, pixels %v", seed, got, want)
			}
			for delta := -255; delta <= 255; delta++ {
				e := Edit{TX: cell % thumbSize, TY: cell / thumbSize, Delta: delta}
				copy(m.Pix, base.Pix)
				e.Apply(m)
				if got, want := s.DHash(seed, e), DHash(m); got != want {
					t.Fatalf("seed %d (level %d at cell %d), %+v: grid %v, pixels %v",
						seed, avatarLevels[l], cell, e, got, want)
				}
			}
		}
	}
	// Cells outside the grid edit nothing on either path.
	base := Synthesize(11)
	for _, e := range []Edit{{TX: -1, Delta: 9}, {TY: -1, Delta: 9}, {TX: thumbSize, Delta: 9}, {TY: thumbSize, Delta: -9}} {
		copy(m.Pix, base.Pix)
		e.Apply(m)
		if !bytes.Equal(m.Pix, base.Pix) {
			t.Fatalf("%+v changed pixels", e)
		}
		if got, want := s.DHash(11, e), DHash(base); got != want {
			t.Fatalf("%+v: grid %v, unedited %v", e, got, want)
		}
	}
}

// BenchmarkAvatarHash times one avatar end to end: the dHash grid path
// every dHash world takes, the painted dHash it replaces, and the painted
// pHash path that pHash worlds take.
func BenchmarkAvatarHash(b *testing.B) {
	s := NewSynthesizer()
	e := Edit{TX: 3, TY: 4, Delta: -40}
	b.Run("dhash-grid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = s.DHash(int64(i), e)
		}
	})
	b.Run("dhash-painted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := s.Synthesize(int64(i))
			e.Apply(m)
			_ = DHash(m)
		}
	})
	b.Run("phash-painted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := s.Synthesize(int64(i))
			e.Apply(m)
			_ = PHash(m)
		}
	})
}

func TestPerturbIsDrawEditThenApply(t *testing.T) {
	for _, amplitude := range []int{-3, 0, 1, 40, 300} {
		for seed := int64(0); seed < 50; seed++ {
			base := Synthesize(seed)
			rngA := rand.New(rand.NewSource(seed))
			rngB := rand.New(rand.NewSource(seed))
			rngC := rand.New(rand.NewSource(seed))

			got := Perturb(base, amplitude, rngA)
			want := perturbReference(base, amplitude, rngB)
			split := NewImage(base.W, base.H)
			copy(split.Pix, base.Pix)
			DrawEdit(amplitude, rngC).Apply(split)

			if !bytes.Equal(got.Pix, want.Pix) || !bytes.Equal(split.Pix, want.Pix) {
				t.Fatalf("amplitude %d seed %d: Perturb, DrawEdit+Apply and the reference disagree", amplitude, seed)
			}
			a, b, c := rngA.Int63(), rngB.Int63(), rngC.Int63()
			if a != b || c != b {
				t.Fatalf("amplitude %d seed %d: rng left in different states (%d, %d, %d)", amplitude, seed, a, c, b)
			}
		}
	}
}

func TestPerturbEmptyImageDrawsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	Perturb(NewImage(0, 0), 40, rng)
	if got, want := rng.Int63(), rand.New(rand.NewSource(1)).Int63(); got != want {
		t.Fatal("Perturb drew from rng for an empty image")
	}
}

func TestZeroEditIsIdentity(t *testing.T) {
	m := Synthesize(3)
	before := append([]uint8(nil), m.Pix...)
	Edit{}.Apply(m)
	Edit{TX: 2, TY: 2, Delta: 9}.Apply(NewImage(0, 0))
	if !bytes.Equal(m.Pix, before) {
		t.Fatal("the zero Edit changed pixels")
	}
}
