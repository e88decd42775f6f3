package imagehash

import "math/rand"

// Synthesize is the one-shot avatar: a fresh math/rand generator and
// image per call, drawing and painting block by block. The pooled
// Synthesizer, with its lazily seeded source, must paint the same image
// pixel for pixel.
func Synthesize(seed int64) *Image {
	rng := rand.New(rand.NewSource(seed))
	m := NewImage(avatarSize, avatarSize)
	const cell = avatarSize / thumbSize
	for cy := 0; cy < thumbSize; cy++ {
		for cx := 0; cx < thumbSize; cx++ {
			v := avatarLevels[rng.Intn(len(avatarLevels))]
			for y := cy * cell; y < (cy+1)*cell; y++ {
				for x := cx * cell; x < (cx+1)*cell; x++ {
					m.Set(x, y, v)
				}
			}
		}
	}
	return m
}

// Perturb returns a campaign-style variant of m: a copy with one
// DrawEdit(amplitude, rng) applied. Amplitude ≤ 0 returns an exact copy;
// an empty m draws nothing.
func Perturb(m *Image, amplitude int, rng *rand.Rand) *Image {
	out := NewImage(m.W, m.H)
	copy(out.Pix, m.Pix)
	if m.W == 0 || m.H == 0 {
		return out
	}
	DrawEdit(amplitude, rng).Apply(out)
	return out
}
