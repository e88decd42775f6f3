package source

import (
	"math/rand"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// TwitterSource adapts the in-process socialnet engine — the simulator
// behind the emulated Twitter firehose — to the Source interface. It is a
// zero-cost pass-through: hooks and subscriptions delegate straight to the
// engine, so a sniffer consuming a TwitterSource is bit-identical to one
// subscribed to the engine directly (the pinned golden streaming and
// sharded fingerprints hold across the refactor).
type TwitterSource struct {
	world  *socialnet.World
	engine *socialnet.Engine
}

var (
	_ Source    = (*TwitterSource)(nil)
	_ Screening = (*TwitterSource)(nil)
)

// NewTwitter wraps a simulated world and its traffic engine as a Source.
func NewTwitter(world *socialnet.World, engine *socialnet.Engine) *TwitterSource {
	return &TwitterSource{world: world, engine: engine}
}

// ID implements Source.
func (s *TwitterSource) ID() string { return "twitter" }

// OnHourStart implements Source.
func (s *TwitterSource) OnHourStart(fn func(hour int, now time.Time)) {
	s.engine.OnHourStart(fn)
}

// Subscribe implements Source.
func (s *TwitterSource) Subscribe(fn func(p Post)) (cancel func()) {
	return s.engine.Subscribe(func(t *socialnet.Tweet) {
		fn(Post{Tweet: t, Origin: "twitter"})
	})
}

// RunHours implements Source.
func (s *TwitterSource) RunHours(n int) error {
	s.engine.RunHours(n)
	return nil
}

// Lookup implements Source.
func (s *TwitterSource) Lookup(id socialnet.AccountID) *socialnet.Account {
	return s.world.Account(id)
}

// Now implements Source.
func (s *TwitterSource) Now() time.Time { return s.engine.Now() }

// Rotation implements Source: live sources rotate through the screener.
func (s *TwitterSource) Rotation(int) []int { return nil }

// Close implements Source. The engine belongs to the caller's simulation
// and outlives the source, so there is nothing to release.
func (s *TwitterSource) Close() error { return nil }

// NewScreener implements Screening with the same local-world screener the
// sniffer used before the source refactor.
func (s *TwitterSource) NewScreener(seed int64) core.Screener {
	return &core.LocalScreener{World: s.world, Rng: rand.New(rand.NewSource(seed))}
}
