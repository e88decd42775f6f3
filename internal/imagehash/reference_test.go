package imagehash

import "math/rand"

// Synthesize is the one-shot avatar: a fresh generator and image per call.
// The pooled Synthesizer must paint the same image pixel for pixel.
func Synthesize(seed int64) *Image {
	m := NewImage(avatarSize, avatarSize)
	synthesizeInto(m, rand.New(rand.NewSource(seed)))
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
