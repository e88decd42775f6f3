// Package features implements the paper's 58-feature extraction (§IV-A):
// 16 sender-profile features, 16 receiver-profile features, 8 tweet-content
// features, and 18 user-behaviour features (reciprocity, tweet/source
// distributions, mention time, average tweet interval, and the environment
// score).
//
// The Extractor is stateful: behavioural features accumulate as tweets are
// observed in stream order, exactly as the pseudo-honeypot monitor sees
// them. One Extractor instance therefore corresponds to one monitoring
// deployment.
package features

import (
	"time"
	"unicode/utf8"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil"
)

// NumFeatures is the dimensionality of a feature vector (the paper's 58).
const NumFeatures = 58

// DefaultTau is the environment-score constant used before any spam has
// been attributed to a group (the paper's τ).
const DefaultTau = 0.01

// Feature vector layout. The named indices document the mapping from the
// paper's feature list onto vector positions.
const (
	// Sender profile features (16).
	FSenderFriends = iota
	FSenderFollowers
	FSenderAgeDays
	FSenderStatuses
	FSenderStatusesPerDay
	FSenderLists
	FSenderListsPerDay
	FSenderFavouritesPerDay
	FSenderFavourites
	FSenderVerified
	FSenderDefaultImage
	FSenderScreenNameLen
	FSenderNameLen
	FSenderDescLen
	FSenderDescEmoji
	FSenderDescDigits

	// Receiver profile features (16), zero when the tweet mentions no
	// monitored receiver.
	FReceiverFriends
	FReceiverFollowers
	FReceiverAgeDays
	FReceiverStatuses
	FReceiverStatusesPerDay
	FReceiverLists
	FReceiverListsPerDay
	FReceiverFavouritesPerDay
	FReceiverFavourites
	FReceiverVerified
	FReceiverDefaultImage
	FReceiverScreenNameLen
	FReceiverNameLen
	FReceiverDescLen
	FReceiverDescEmoji
	FReceiverDescDigits

	// Tweet content features (8).
	FContentRepeated
	FContentKind
	FContentSource
	FContentHashtags
	FContentMentions
	FContentLength
	FContentEmoji
	FContentDigits

	// User behaviour features (18).
	FBehaviorReciprocity
	FBehaviorSenderTweetPct
	FBehaviorSenderRetweetPct
	FBehaviorSenderQuotePct
	FBehaviorReceiverTweetPct
	FBehaviorReceiverRetweetPct
	FBehaviorReceiverQuotePct
	FBehaviorSenderWebPct
	FBehaviorSenderMobilePct
	FBehaviorSenderThirdPct
	FBehaviorSenderOtherPct
	FBehaviorReceiverWebPct
	FBehaviorReceiverMobilePct
	FBehaviorReceiverThirdPct
	FBehaviorReceiverOtherPct
	FBehaviorMentionTime
	FBehaviorAvgInterval
	FBehaviorEnvScore
)

// Vector is one extracted feature vector.
type Vector [NumFeatures]float64

// names lists human-readable feature names, index-aligned with Vector.
var names = [NumFeatures]string{
	"sender friends count", "sender followers count", "sender age (days)",
	"sender status count", "sender average statuses", "sender list count",
	"sender average lists", "sender average favourites",
	"sender favorites count", "sender verified",
	"sender default profile image", "sender screen name length",
	"sender name length", "sender description length",
	"sender description emoji count", "sender description digits count",

	"receiver friends count", "receiver followers count",
	"receiver age (days)", "receiver status count",
	"receiver average statuses", "receiver list count",
	"receiver average lists", "receiver average favourites",
	"receiver favorites count", "receiver verified",
	"receiver default profile image", "receiver screen name length",
	"receiver name length", "receiver description length",
	"receiver description emoji count", "receiver description digits count",

	"tweet repeated", "tweet status", "tweet source", "hashtag count",
	"mention count", "content length", "content emoji count",
	"content digits count",

	"reciprocity count", "sender tweet pct", "sender retweet pct",
	"sender quote pct", "receiver tweet pct", "receiver retweet pct",
	"receiver quote pct", "sender web pct", "sender mobile pct",
	"sender third-party pct", "sender other pct", "receiver web pct",
	"receiver mobile pct", "receiver third-party pct", "receiver other pct",
	"mention time", "average tweet interval", "environment score",
}

// Name returns the human-readable name of feature index i.
func Name(i int) string {
	if i < 0 || i >= NumFeatures {
		return "unknown"
	}
	return names[i]
}

// history accumulates one account's observed behaviour.
type history struct {
	kindCounts   [3]int64 // tweet, retweet, quote
	sourceCounts [socialnet.NumSources]int64
	total        int64
	lastTweetAt  time.Time
	intervalSum  time.Duration
	intervalN    int64
}

func (h *history) observe(t *socialnet.Tweet) {
	switch t.Kind {
	case socialnet.KindTweet:
		h.kindCounts[0]++
	case socialnet.KindRetweet:
		h.kindCounts[1]++
	case socialnet.KindQuote:
		h.kindCounts[2]++
	}
	if s := int(t.Source) - 1; s >= 0 && s < socialnet.NumSources {
		h.sourceCounts[s]++
	}
	if !h.lastTweetAt.IsZero() {
		if d := t.CreatedAt.Sub(h.lastTweetAt); d >= 0 {
			h.intervalSum += d
			h.intervalN++
		}
	}
	h.lastTweetAt = t.CreatedAt
	h.total++
}

func (h *history) kindPct(i int) float64 {
	if h == nil || h.total == 0 {
		return 0
	}
	return float64(h.kindCounts[i]) / float64(h.total)
}

func (h *history) sourcePct(i int) float64 {
	if h == nil || h.total == 0 {
		return 0
	}
	return float64(h.sourceCounts[i]) / float64(h.total)
}

// avgIntervalSeconds returns the mean spacing of the account's observed
// tweets, or def when fewer than two tweets were seen.
func (h *history) avgIntervalSeconds(def float64) float64 {
	if h == nil || h.intervalN == 0 {
		return def
	}
	return h.intervalSum.Seconds() / float64(h.intervalN)
}

type pairKey struct {
	a, b socialnet.AccountID
}

func makePair(a, b socialnet.AccountID) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a: a, b: b}
}

// Extractor converts observed tweets into feature vectors, accumulating the
// behavioural state the 18 behaviour features require.
type Extractor struct {
	tau       float64
	histories map[socialnet.AccountID]*history
	pairs     map[pairKey]int
	// textSeen counts exact tweet texts for the repeated-content feature.
	textSeen map[string]int
	// envScores holds the group likelihood score p_i per attribute key
	// (the paper's P_attr).
	envScores map[string]float64
	// lastPost tracks each account's most recent observed post for the
	// mention-time feature.
	lastPost map[socialnet.AccountID]time.Time
}

// NewExtractor creates an empty extractor with the default τ.
func NewExtractor() *Extractor {
	return &Extractor{
		tau:       DefaultTau,
		histories: make(map[socialnet.AccountID]*history),
		pairs:     make(map[pairKey]int),
		textSeen:  make(map[string]int),
		envScores: make(map[string]float64),
		lastPost:  make(map[socialnet.AccountID]time.Time),
	}
}

// UpdateEnvScore records the group likelihood score p for an attribute key
// (the paper updates P_attr whenever new spam is attributed to a group).
func (e *Extractor) UpdateEnvScore(attrKey string, p float64) {
	e.envScores[attrKey] = p
}

// EnvScore returns the current environment score for a set of attribute
// keys: the maximum group likelihood among them, or τ when none is known.
func (e *Extractor) EnvScore(attrKeys []string) float64 {
	best := 0.0
	found := false
	for _, k := range attrKeys {
		if p, ok := e.envScores[k]; ok {
			found = true
			if p > best {
				best = p
			}
		}
	}
	if !found {
		return e.tau
	}
	return best
}

// Observation is one collected tweet with the profile context the monitor
// captured at collection time.
type Observation struct {
	Tweet *socialnet.Tweet
	// Sender is the author's profile snapshot.
	Sender *socialnet.Account
	// Receiver is the mentioned pseudo-honeypot account's profile, nil
	// for tweets that mention no monitored account.
	Receiver *socialnet.Account
	// AttrKeys are the selector keys of the pseudo-honeypot group(s) that
	// captured the tweet, for the environment-score feature.
	AttrKeys []string
}

// Stateless computes the order-independent portion of the feature vector:
// the sender/receiver profile features and every content feature except
// repeated-content. It reads only the observation's frozen snapshots — no
// extractor state — so shard workers may call it concurrently and out of
// stream order; (*Extractor).CompleteStateful fills in the rest serially.
func Stateless(o Observation) Vector {
	var v Vector
	t := o.Tweet
	now := t.CreatedAt

	if o.Sender != nil {
		fillProfile(&v, FSenderFriends, o.Sender, now)
	}
	if o.Receiver != nil {
		fillProfile(&v, FReceiverFriends, o.Receiver, now)
	}

	v[FContentKind] = float64(t.Kind)
	v[FContentSource] = float64(t.Source)
	v[FContentHashtags] = float64(len(t.Hashtags))
	v[FContentMentions] = float64(len(t.Mentions))
	v[FContentLength] = float64(utf8.RuneCountInString(t.Text))
	v[FContentEmoji] = float64(textutil.CountEmoji(t.Text))
	v[FContentDigits] = float64(textutil.CountDigits(t.Text))
	return v
}

// CompleteStateful fills the stateful features — repeated-content and the
// 18 behaviour features — into a vector begun by Stateless, then folds the
// observation into the behavioural state. Completions must run in stream
// (chronological) order.
func (e *Extractor) CompleteStateful(o Observation, v *Vector) {
	t := o.Tweet

	e.textSeen[t.Text]++
	if e.textSeen[t.Text] > 1 {
		v[FContentRepeated] = 1
	}

	// Behavioural features use the state *before* this observation, then
	// the observation is folded in.
	var senderHist, receiverHist *history
	if o.Sender != nil {
		senderHist = e.histories[o.Sender.ID]
	}
	if o.Receiver != nil {
		receiverHist = e.histories[o.Receiver.ID]
	}
	if o.Sender != nil && o.Receiver != nil {
		v[FBehaviorReciprocity] = float64(e.pairs[makePair(o.Sender.ID, o.Receiver.ID)])
	}
	v[FBehaviorSenderTweetPct] = senderHist.kindPct(0)
	v[FBehaviorSenderRetweetPct] = senderHist.kindPct(1)
	v[FBehaviorSenderQuotePct] = senderHist.kindPct(2)
	v[FBehaviorReceiverTweetPct] = receiverHist.kindPct(0)
	v[FBehaviorReceiverRetweetPct] = receiverHist.kindPct(1)
	v[FBehaviorReceiverQuotePct] = receiverHist.kindPct(2)
	for i := 0; i < socialnet.NumSources; i++ {
		v[FBehaviorSenderWebPct+i] = senderHist.sourcePct(i)
		v[FBehaviorReceiverWebPct+i] = receiverHist.sourcePct(i)
	}
	v[FBehaviorMentionTime] = e.mentionTimeSeconds(o)
	v[FBehaviorAvgInterval] = senderHist.avgIntervalSeconds(3600)
	v[FBehaviorEnvScore] = e.EnvScore(o.AttrKeys)

	e.fold(o)
}

// mentionTimeSeconds computes f_m = T_mention − T_post: the gap between the
// receiver's last observed post and this mention. Unknown gaps report one
// day, the paper's effective "slow reaction" ceiling.
func (e *Extractor) mentionTimeSeconds(o Observation) float64 {
	const unknown = 86400.0
	if o.Receiver == nil {
		return unknown
	}
	post, ok := e.lastPost[o.Receiver.ID]
	if !ok {
		// Fall back to the profile's public timeline information.
		post = o.Receiver.LastPostAt()
	}
	if post.IsZero() {
		return unknown
	}
	d := o.Tweet.CreatedAt.Sub(post).Seconds()
	if d < 0 {
		return 0
	}
	if d > unknown {
		return unknown
	}
	return d
}

// fold updates behavioural state with the observation.
func (e *Extractor) fold(o Observation) {
	t := o.Tweet
	if o.Sender != nil {
		h := e.histories[o.Sender.ID]
		if h == nil {
			h = &history{}
			e.histories[o.Sender.ID] = h
		}
		h.observe(t)
		e.lastPost[o.Sender.ID] = t.CreatedAt
		if o.Receiver != nil {
			e.pairs[makePair(o.Sender.ID, o.Receiver.ID)]++
		}
	}
}

// fillProfile writes the 16 profile features of a starting at index base.
func fillProfile(v *Vector, base int, a *socialnet.Account, now time.Time) {
	v[base+0] = float64(a.FriendsCount)
	v[base+1] = float64(a.FollowersCount)
	v[base+2] = a.AgeDays(now)
	v[base+3] = float64(a.StatusesCount)
	v[base+4] = a.StatusesPerDay(now)
	v[base+5] = float64(a.ListedCount)
	v[base+6] = a.ListsPerDay(now)
	v[base+7] = a.FavouritesPerDay(now)
	v[base+8] = float64(a.FavouritesCount)
	v[base+9] = boolToF(a.Verified)
	v[base+10] = boolToF(a.DefaultProfileImage)
	v[base+11] = float64(utf8.RuneCountInString(a.ScreenName))
	v[base+12] = float64(utf8.RuneCountInString(a.Name))
	v[base+13] = float64(utf8.RuneCountInString(a.Description))
	v[base+14] = float64(textutil.CountEmoji(a.Description))
	v[base+15] = float64(textutil.CountDigits(a.Description))
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
