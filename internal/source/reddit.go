package source

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// xpostBase is the id block crossposts are numbered from: far above any
// engine-assigned tweet id, and below the mux namespace stride (1<<40)
// so namespacing still routes crossposts to the owning child.
const xpostBase = 1 << 36

// RedditConfig parameterizes the Reddit-like source.
type RedditConfig struct {
	// World parameterizes the underlying population. The zero value uses
	// the scaled-down socialnet default with Seed applied — a distinct
	// world from any Twitter source in the same run unless the seeds
	// collide on purpose. Set World.CampaignImageSeeds to another
	// world's campaign base seeds for cross-source campaigns.
	World socialnet.Config
	// Seed seeds the default world (ignored when World is set) and the
	// crosspost sampler.
	Seed int64
	// CrosspostFraction is the probability a spam post is re-delivered
	// as a crosspost into a second community. 0 uses the default 0.15;
	// negative disables crossposting.
	CrosspostFraction float64
}

// RedditSource is a synthetic Reddit-like firehose mapped into the
// Twitter-shaped flow the pipeline consumes: submissions and comments
// carry an "r/<community>" marker, and a fraction of spam posts are
// re-delivered as crossposts — the same content hitting a second
// community moments later, as link-spam rings do on Reddit. It runs its
// own socialnet world, so a muxed twitter+reddit run exercises two
// disjoint account populations.
type RedditSource struct {
	cfg    RedditConfig
	world  *socialnet.World
	engine *socialnet.Engine
	rng    *rand.Rand
	xpost  socialnet.TweetID
	// listeners holds the subscribers; hour hooks go to the engine.
	listeners
}

var _ Source = (*RedditSource)(nil)
var _ Screening = (*RedditSource)(nil)

// NewReddit creates the Reddit-like source.
func NewReddit(cfg RedditConfig) (*RedditSource, error) {
	if cfg.World.NumAccounts == 0 {
		cfg.World = socialnet.DefaultConfig()
		if cfg.Seed != 0 {
			cfg.World.Seed = cfg.Seed
		}
	}
	switch {
	case cfg.CrosspostFraction == 0:
		cfg.CrosspostFraction = 0.15
	case cfg.CrosspostFraction < 0:
		cfg.CrosspostFraction = 0
	case cfg.CrosspostFraction > 1:
		return nil, fmt.Errorf("source: CrosspostFraction %v out of [0, 1]", cfg.CrosspostFraction)
	}
	w, err := socialnet.NewWorld(cfg.World)
	if err != nil {
		return nil, err
	}
	r := &RedditSource{
		cfg:    cfg,
		world:  w,
		engine: socialnet.NewEngine(w),
		rng:    rand.New(rand.NewSource(cfg.World.Seed + 11)),
	}
	// One internal subscription transforms and fans out, so the
	// crosspost sampler draws once per spam post regardless of how many
	// downstream subscribers exist.
	r.engine.Subscribe(r.deliver)
	return r, nil
}

// World exposes the source's own social world (campaign-seed wiring and
// evaluation oracles).
func (r *RedditSource) World() *socialnet.World { return r.world }

// ID implements Source.
func (r *RedditSource) ID() string { return "reddit" }

// OnHourStart implements Source.
func (r *RedditSource) OnHourStart(fn func(hour int, now time.Time)) {
	r.engine.OnHourStart(fn)
}

// RunHours implements Source.
func (r *RedditSource) RunHours(n int) error {
	r.engine.RunHours(n)
	return nil
}

// Lookup implements Source.
func (r *RedditSource) Lookup(id socialnet.AccountID) *socialnet.Account {
	return r.world.Account(id)
}

// Now implements Source.
func (r *RedditSource) Now() time.Time { return r.engine.Now() }

// Rotation implements Source: reddit is live, the monitor rotates.
func (r *RedditSource) Rotation(int) []int { return nil }

// Close implements Source.
func (r *RedditSource) Close() error { return nil }

// NewScreener implements Screening over the source's own population.
func (r *RedditSource) NewScreener(seed int64) core.Screener {
	return &core.LocalScreener{World: r.world, Rng: rand.New(rand.NewSource(seed))}
}

// deliver maps one engine tweet into the Reddit shape, fans it out, and
// possibly re-delivers spam as a crosspost.
func (r *RedditSource) deliver(t *socialnet.Tweet) {
	mapped := r.mapPost(t)
	r.publish(Post{Tweet: mapped, Origin: "reddit"})
	if t.Spam && r.cfg.CrosspostFraction > 0 && r.rng.Float64() < r.cfg.CrosspostFraction {
		r.publish(Post{Tweet: r.crosspost(mapped), Origin: "reddit"})
	}
}

// mapPost rewrites an engine tweet as a Reddit-shaped item: submissions
// and comments carry the community marker of their topic. The engine's
// tweet is shared with its internal rings, so the mapping clones.
func (r *RedditSource) mapPost(t *socialnet.Tweet) *socialnet.Tweet {
	out := t.Clone()
	out.Text = "r/" + r.community(t) + " " + out.Text
	return out
}

// community names the subreddit-like bucket a post lands in.
func (r *RedditSource) community(t *socialnet.Tweet) string {
	if t.Topic != "" {
		return t.Topic
	}
	if len(t.Hashtags) > 0 {
		return t.Hashtags[0]
	}
	if len(t.Mentions) > 0 {
		return "AskAnything" // comment threads without a topic
	}
	return "general"
}

// crosspost re-delivers a spam post into a second community: same
// author, same mentions, a fresh id from the crosspost block, and a
// short deterministic delay.
func (r *RedditSource) crosspost(t *socialnet.Tweet) *socialnet.Tweet {
	out := t.Clone()
	r.xpost++
	out.ID = xpostBase + r.xpost
	out.CreatedAt = t.CreatedAt.Add(time.Duration(1+r.rng.Intn(40)) * time.Second)
	out.Text = "r/crossposts [x-post] " + t.Text
	return out
}
