// Package socialnet implements the synthetic Twitter-scale social world the
// pseudo-honeypot system runs against. It replaces the paper's gated
// substrate (the live Twitter network observed through the Streaming/REST
// APIs) with a generative model that reproduces the statistical
// regularities the pseudo-honeypot mechanism exploits:
//
//   - heavy-tailed profile attributes spanning the sample values of the
//     paper's Table II;
//   - spam campaigns whose members share profile-image bases, screen-name
//     templates, near-duplicate descriptions, and tweet text templates;
//   - a spammer targeting model that prefers accounts with the attributes
//     the paper's Tables V/VI rank highest (activity- and audience-related
//     attributes first);
//   - organic mention traffic with human reaction delays, against which
//     spam mentions stand out by their short reaction times;
//   - a suspension process that flags a noisy subset of spammers, feeding
//     the labeling pipeline's suspended-account oracle.
//
// See DESIGN.md §2 for the substitution rationale.
package socialnet

import (
	"strings"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/imagehash"
)

// AccountID identifies an account within a World.
type AccountID int64

// TweetID identifies a tweet within a World.
type TweetID int64

// NoCampaign marks accounts that belong to no spam campaign.
const NoCampaign = -1

// AccountKind is the generative ground-truth role of an account. The
// detection pipeline never reads it; only the labeling oracles do.
type AccountKind int

// Account kinds.
const (
	// KindNormal is an ordinary benign user.
	KindNormal AccountKind = iota + 1
	// KindSpammer is a spam-campaign member or lone spammer.
	KindSpammer
	// KindSeed is a trusted account (government, large organization,
	// well-known person) usable as a rule-based non-spam seed.
	KindSeed
)

func (k AccountKind) String() string {
	switch k {
	case KindNormal:
		return "normal"
	case KindSpammer:
		return "spammer"
	case KindSeed:
		return "seed"
	default:
		return "unknown"
	}
}

// Account is a simulated user profile. The exported fields mirror the
// profile attributes observable through the Twitter API (paper Table I,
// category C1, and the profile features of §IV-A).
type Account struct {
	ID          AccountID
	ScreenName  string
	Name        string
	Description string

	// CreatedAt determines the account-age attribute.
	CreatedAt time.Time

	FriendsCount    int
	FollowersCount  int
	ListedCount     int
	FavouritesCount int
	StatusesCount   int

	Verified            bool
	DefaultProfileImage bool

	// ProfileImageSeed seeds the synthetic avatar; campaign members share
	// a base seed and differ by one campaign edit (see imagehash.Edit).
	ProfileImageSeed int64
	// ProfileImageHash is the precomputed perceptual hash of the avatar:
	// dHash, or pHash under ImageHashPHash.
	ProfileImageHash imagehash.Hash

	// Kind and CampaignID are generative ground truth, hidden from the
	// detector and revealed only through the labeling oracles.
	Kind       AccountKind
	CampaignID int

	// Suspended reports whether the platform has already suspended the
	// account (a noisy subset of spammers plus rare false suspensions).
	Suspended   bool
	SuspendedAt time.Time

	// HashtagCategory is the account's dominant hashtag category, or
	// HashtagNone for accounts that tweet without hashtags.
	HashtagCategory HashtagCategory
	// TrendAffinity is the trending-topic behaviour of the account.
	TrendAffinity TrendState

	// TweetsPerHour is the organic posting rate.
	TweetsPerHour float64
	// MentionRate is the organic rate at which other users mention this
	// account, before spam traffic.
	MentionRate float64

	// PreferredSource is the client the account usually tweets from.
	PreferredSource Source

	// lastPostAt tracks the most recent post for mention-time computation
	// and active/dormant status. Maintained by the Engine.
	lastPostAt time.Time
	// recentMentions counts mentions received in the current window,
	// decayed hourly. Maintained by the Engine.
	recentMentions int
	// spamBudget is the number of spam messages the account can still
	// send before it is burned (spammers only). Maintained by the Engine.
	spamBudget int
	// attraction caches the count-derived factors of World.Attraction.
	attraction attractionCache
}

// AgeDays returns the account age in days at instant now.
func (a *Account) AgeDays(now time.Time) float64 {
	d := now.Sub(a.CreatedAt)
	if d < 0 {
		return 0
	}
	return d.Hours() / 24
}

// FriendFollowerRatio returns friends/followers, treating zero followers
// as a ratio against one follower to stay finite.
func (a *Account) FriendFollowerRatio() float64 {
	followers := a.FollowersCount
	if followers == 0 {
		followers = 1
	}
	return float64(a.FriendsCount) / float64(followers)
}

// ListsPerDay returns the average lists joined per day of account age.
func (a *Account) ListsPerDay(now time.Time) float64 {
	return perDay(a.ListedCount, a.AgeDays(now))
}

// FavouritesPerDay returns the average favourites per day of account age.
func (a *Account) FavouritesPerDay(now time.Time) float64 {
	return perDay(a.FavouritesCount, a.AgeDays(now))
}

// StatusesPerDay returns the average statuses per day of account age.
func (a *Account) StatusesPerDay(now time.Time) float64 {
	return perDay(a.StatusesCount, a.AgeDays(now))
}

func perDay(count int, ageDays float64) float64 {
	if ageDays < 1 {
		ageDays = 1
	}
	return float64(count) / ageDays
}

// LastPostAt returns the time of the account's most recent post observed
// by the engine, or the zero time if it has not posted.
func (a *Account) LastPostAt() time.Time { return a.lastPostAt }

// SetLastPostAt overrides the last-post timestamp. It exists for decoders
// that rebuild profile snapshots from the wire (proc-mode shard workers);
// the engine maintains the field itself during simulation.
func (a *Account) SetLastPostAt(t time.Time) { a.lastPostAt = t }

// Active reports the paper's §III-D activity status: the account posted
// within the window and received mentions recently.
func (a *Account) Active(now time.Time, window time.Duration) bool {
	if a.lastPostAt.IsZero() {
		return false
	}
	return now.Sub(a.lastPostAt) <= window && a.recentMentions > 0
}

// TweetKind distinguishes original tweets, retweets, and quotes.
type TweetKind int

// Tweet kinds.
const (
	KindTweet TweetKind = iota + 1
	KindRetweet
	KindQuote
)

func (k TweetKind) String() string {
	switch k {
	case KindTweet:
		return "tweet"
	case KindRetweet:
		return "retweet"
	case KindQuote:
		return "quote"
	default:
		return "unknown"
	}
}

// Source is the client a tweet was posted from.
type Source int

// Tweet sources.
const (
	SourceWeb Source = iota + 1
	SourceMobile
	SourceThirdParty
	SourceOther
)

// NumSources is the number of distinct Source values.
const NumSources = 4

func (s Source) String() string {
	switch s {
	case SourceWeb:
		return "web"
	case SourceMobile:
		return "mobile"
	case SourceThirdParty:
		return "third-party"
	default:
		return "other"
	}
}

// Tweet is one simulated status update. Exported fields mirror what the
// Streaming API delivers in tweet JSON.
type Tweet struct {
	ID        TweetID
	AuthorID  AccountID
	CreatedAt time.Time
	Kind      TweetKind
	Source    Source

	Text     string
	Hashtags []string
	Mentions []AccountID
	URLs     []string

	// Topic is the trending topic the tweet discusses, if any.
	Topic string

	// Spam and CampaignID are generative ground truth, consumed only by
	// evaluation code, never by the detector.
	Spam       bool
	CampaignID int
}

// Clone returns a deep copy of the tweet that owns all of its memory:
// slices are copied so API boundaries never share mutable state with the
// engine, and strings are copied so tweets built by zero-copy stream
// decoding (whose strings alias a reused decode buffer) can be retained.
func (t *Tweet) Clone() *Tweet {
	cp := *t
	cp.Text = strings.Clone(t.Text)
	cp.Topic = strings.Clone(t.Topic)
	cp.Hashtags = cloneStringSlice(t.Hashtags)
	cp.URLs = cloneStringSlice(t.URLs)
	cp.Mentions = append([]AccountID(nil), t.Mentions...)
	return &cp
}

// cloneStringSlice deep-copies a string slice, preserving nil.
func cloneStringSlice(in []string) []string {
	if in == nil {
		return nil
	}
	out := make([]string, len(in))
	for i, s := range in {
		out[i] = strings.Clone(s)
	}
	return out
}
