// Package source abstracts the sniffer's ingestion layer behind a Source
// interface: a deterministic, sim-time-driven stream of typed posts the
// monitor consumes without knowing which platform (or recording) produced
// them. Implementations ship in this package:
//
//   - Twitter: the adapter over the in-process socialnet engine — the
//     original paper topology, bit-identical to the sniffer's pre-source
//     wiring (the pinned golden fingerprints prove it).
//   - Reddit: a synthetic Reddit-like firehose (submissions, comments,
//     crossposts) mapped into the Twitter-shaped flow.
//   - Replay: re-feeds a capture WAL written by internal/store through the
//     full pipeline, turning the durability layer into a reproducible
//     ingest backend.
//   - Wire: a running twitterd over the emulated Streaming and REST APIs
//     — the paper's deployment shape — one statuses/filter stream per
//     hour, closed by the server's end-of-hour control line.
//   - Mux: merges several sources with deterministic k-way ordering and
//     per-source id namespacing.
//
// The contract every Source honors (the "source wire contract",
// DESIGN.md §17):
//
//   - Hour hooks fire before any of that hour's posts are delivered.
//   - Subscribe callbacks run on the delivery goroutine, synchronously
//     with RunHours — when RunHours(n) returns, every post of those n
//     hours has been delivered.
//   - Post and account ids are deterministic for a fixed configuration:
//     two runs of the same source deliver byte-identical streams.
//   - Lookup resolves an account id to the live profile as of delivery
//     time (monitors snapshot it; label stores re-resolve at Snapshot).
package source

import (
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// Post is one delivered item: a Twitter-shaped status update stamped with
// the id of the source that produced it. Replay is non-nil only for posts
// re-fed from a capture WAL, where match-time state (frozen profile
// snapshots, group assignment) was recorded and must be adopted rather
// than recomputed.
type Post struct {
	// Tweet is the status update, in the simulator's native shape.
	Tweet *socialnet.Tweet
	// Origin is the id of the source that produced the post ("twitter",
	// "reddit", "replay", "wire"). The pipeline stamps it on captures, metrics,
	// and spans.
	Origin string
	// Replay carries the recorded match context for WAL-replayed posts;
	// nil for live posts, which go through Monitor.Match.
	Replay *ReplayInfo
}

// ReplayInfo is the recorded match-time context of one replayed capture:
// the profile snapshots frozen when the original run matched the tweet,
// and the selector groups the receiving node belonged to.
type ReplayInfo struct {
	// Sender is the author profile as snapshotted at original match time.
	Sender *socialnet.Account
	// Receiver is the honeypot node profile at original match time.
	Receiver *socialnet.Account
	// Groups are the selector-group indices that attributed the capture.
	Groups []int
}

// Source is a deterministic ingest stream. The sniffer consumes Sources
// instead of subscribing to the socialnet engine directly; see the package
// comment for the delivery contract.
type Source interface {
	// ID names the source; it becomes the Origin of every delivered post
	// and the value of the "source" label on pipeline metrics and spans.
	ID() string
	// OnHourStart registers a hook that fires at each simulated hour
	// boundary before that hour's posts.
	OnHourStart(fn func(hour int, now time.Time))
	// Subscribe delivers every post to fn and returns a cancel func.
	// Delivery is synchronous with RunHours.
	Subscribe(fn func(p Post)) (cancel func())
	// RunHours advances the source by n simulated hours of traffic.
	RunHours(n int) error
	// Lookup resolves an account id to its live profile, or nil.
	Lookup(id socialnet.AccountID) *socialnet.Account
	// Now reports the source's current simulated time.
	Now() time.Time
	// Rotation returns the recorded per-group node counts for the hour,
	// or nil when the source is live and the monitor should rotate its
	// own node set. Only replayed recordings return counts: replay cannot
	// re-screen a world that no longer exists, so it re-accrues the node
	// hours the original run recorded instead.
	Rotation(hour int) []int
	// Close releases the source's resources.
	Close() error
}

// ReplayBacked is an optional Source capability marking sources that
// re-feed a recording rather than generate live traffic. Config
// validation uses it: a replay-backed source must be the sole source of
// a run (its recorded captures carry match context no mux can remap).
type ReplayBacked interface {
	// ReplayBacked reports whether the source replays a recording.
	ReplayBacked() bool
}

// Screening is an optional Source capability: sources backed by a live,
// screenable account population provide the monitor's node-selection
// screener. Sources without it (replay) never rotate, so no screener is
// ever invoked.
type Screening interface {
	// NewScreener builds the screener the monitor rotates against, seeded
	// for deterministic sampling.
	NewScreener(seed int64) core.Screener
}

// listeners is the hook and subscriber registry a source embeds: it
// implements OnHourStart and Subscribe, and the source fires what was
// registered, in registration order, through startHour and publish.
type listeners struct {
	hooks []func(hour int, now time.Time)
	subs  []func(Post)
}

// OnHourStart implements Source.
func (l *listeners) OnHourStart(fn func(hour int, now time.Time)) {
	l.hooks = append(l.hooks, fn)
}

// Subscribe implements Source.
func (l *listeners) Subscribe(fn func(p Post)) (cancel func()) {
	l.subs = append(l.subs, fn)
	i := len(l.subs) - 1
	return func() { l.subs[i] = nil }
}

// startHour fires the hour hooks.
func (l *listeners) startHour(hour int, now time.Time) {
	for _, fn := range l.hooks {
		fn(hour, now)
	}
}

// publish hands p to every subscriber not cancelled.
func (l *listeners) publish(p Post) {
	for _, fn := range l.subs {
		if fn != nil {
			fn(p)
		}
	}
}

// NullScreener is a Screener that never returns candidates; it backs
// sources that cannot screen (replay) where rotation is never triggered.
type NullScreener struct{}

// Screen implements core.Screener.
func (NullScreener) Screen(socialnet.ScreenQuery, time.Time) []*socialnet.Account { return nil }
