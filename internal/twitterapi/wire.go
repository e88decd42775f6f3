// Package twitterapi provides an HTTP emulation of the two Twitter
// developer APIs the paper's implementation relies on (§V-A): the Streaming
// API (statuses/filter with mention tracking, delivered as chunked NDJSON)
// and the REST API (user lookup, account search, trends). The Server wraps
// a socialnet Engine; the Client mirrors the Tweepy-style consumer. Each
// stream connection is read to the end of a simulated hour, which the
// server marks with a control line (HourEnd).
//
// Ground-truth fields (spam flags, campaign ids, account kinds) are never
// exposed on the wire unless the server is explicitly constructed with the
// evaluation oracle enabled — the detection pipeline sees only what the
// real APIs would publish.
package twitterapi

import (
	"strings"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// User is the wire form of an account profile, mirroring the fields of
// Twitter user JSON that the paper's feature extractor consumes.
type User struct {
	ID              int64  `json:"id"`
	ScreenName      string `json:"screen_name"`
	Name            string `json:"name"`
	Description     string `json:"description"`
	CreatedAt       string `json:"created_at"`
	FriendsCount    int    `json:"friends_count"`
	FollowersCount  int    `json:"followers_count"`
	ListedCount     int    `json:"listed_count"`
	FavouritesCount int    `json:"favourites_count"`
	StatusesCount   int    `json:"statuses_count"`
	Verified        bool   `json:"verified"`
	DefaultProfile  bool   `json:"default_profile_image"`
	// ProfileImageHash stands in for the profile image URL: the dHash the
	// labeling pipeline would compute after downloading the image.
	ProfileImageHash string `json:"profile_image_hash"`
	Suspended        bool   `json:"suspended"`
	// LastPostAt supports active/dormant screening (observable from the
	// user's public timeline).
	LastPostAt string `json:"last_post_at,omitempty"`
}

// Mention is one user-mention entity.
type Mention struct {
	ID         int64  `json:"id"`
	ScreenName string `json:"screen_name"`
}

// Entities carries the tweet's hashtag, mention, and URL entities.
type Entities struct {
	Hashtags []string  `json:"hashtags"`
	Mentions []Mention `json:"user_mentions"`
	URLs     []string  `json:"urls"`
}

// Tweet is the wire form of a status.
type Tweet struct {
	ID        int64    `json:"id"`
	CreatedAt string   `json:"created_at"`
	Text      string   `json:"text"`
	Kind      string   `json:"kind"` // tweet | retweet | quote
	Source    string   `json:"source"`
	User      User     `json:"user"`
	Entities  Entities `json:"entities"`
	Topic     string   `json:"topic,omitempty"`

	// Spam and CampaignID are populated only by oracle-enabled servers,
	// for evaluation harnesses. They are absent from normal streams.
	Spam       *bool `json:"x_oracle_spam,omitempty"`
	CampaignID *int  `json:"x_oracle_campaign,omitempty"`

	// HourEnd marks a control line, not a tweet: the server writes one to
	// every open stream after each simulated hour, behind all of that
	// hour's tweets (Twitter's stream interleaved control messages too).
	HourEnd *HourEnd `json:"x_hour_end,omitempty"`
}

// HourEnd is the payload of an end-of-hour control line.
type HourEnd struct {
	// Hour is the simulated hour that just ended (0-based).
	Hour int `json:"hour"`
	// Dropped counts the tweets this stream has lost so far because the
	// consumer fell behind; a complete stream reports 0.
	Dropped int64 `json:"dropped"`
}

// Clone returns a deep copy of the tweet that owns all of its memory.
// Stream handlers need it before retaining a tweet (or any string or slice
// reachable from it) beyond the callback: the stream decoder reuses its
// buffers between lines (see StreamConn.Next).
func (t Tweet) Clone() Tweet {
	c := t
	c.CreatedAt = strings.Clone(t.CreatedAt)
	c.Text = strings.Clone(t.Text)
	c.Kind = strings.Clone(t.Kind)
	c.Source = strings.Clone(t.Source)
	c.Topic = strings.Clone(t.Topic)
	c.User = t.User.clone()
	if t.Entities.Hashtags != nil {
		c.Entities.Hashtags = cloneStrings(t.Entities.Hashtags)
	}
	if t.Entities.URLs != nil {
		c.Entities.URLs = cloneStrings(t.Entities.URLs)
	}
	if t.Entities.Mentions != nil {
		c.Entities.Mentions = make([]Mention, len(t.Entities.Mentions))
		for i, m := range t.Entities.Mentions {
			c.Entities.Mentions[i] = Mention{ID: m.ID, ScreenName: strings.Clone(m.ScreenName)}
		}
	}
	if t.Spam != nil {
		v := *t.Spam
		c.Spam = &v
	}
	if t.CampaignID != nil {
		v := *t.CampaignID
		c.CampaignID = &v
	}
	if t.HourEnd != nil {
		v := *t.HourEnd
		c.HourEnd = &v
	}
	return c
}

func (u User) clone() User {
	c := u
	c.ScreenName = strings.Clone(u.ScreenName)
	c.Name = strings.Clone(u.Name)
	c.Description = strings.Clone(u.Description)
	c.CreatedAt = strings.Clone(u.CreatedAt)
	c.ProfileImageHash = strings.Clone(u.ProfileImageHash)
	c.LastPostAt = strings.Clone(u.LastPostAt)
	return c
}

func cloneStrings(in []string) []string {
	out := make([]string, len(in))
	for i, s := range in {
		out[i] = strings.Clone(s)
	}
	return out
}

// Trend is one entry of the trends endpoint.
type Trend struct {
	Name   string  `json:"name"`
	State  string  `json:"state"`
	Volume float64 `json:"volume"`
}

// SimStats reports simulation counters via /sim/stats.
type SimStats struct {
	Hours         int    `json:"hours"`
	TweetsTotal   int64  `json:"tweets_total"`
	MentionTweets int64  `json:"mention_tweets"`
	Suspensions   int64  `json:"suspensions"`
	Now           string `json:"now"`
}

// APIError is the error envelope used by non-2xx responses.
type APIError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

func (e *APIError) Error() string { return e.Message }

// encodeUser converts an account to its wire form at instant now.
func encodeUser(a *socialnet.Account) User {
	u := User{
		ID:               int64(a.ID),
		ScreenName:       a.ScreenName,
		Name:             a.Name,
		Description:      a.Description,
		CreatedAt:        a.CreatedAt.Format(time.RFC3339Nano),
		FriendsCount:     a.FriendsCount,
		FollowersCount:   a.FollowersCount,
		ListedCount:      a.ListedCount,
		FavouritesCount:  a.FavouritesCount,
		StatusesCount:    a.StatusesCount,
		Verified:         a.Verified,
		DefaultProfile:   a.DefaultProfileImage,
		ProfileImageHash: a.ProfileImageHash.String(),
		Suspended:        a.Suspended,
	}
	if !a.LastPostAt().IsZero() {
		u.LastPostAt = a.LastPostAt().Format(time.RFC3339Nano)
	}
	return u
}

// encodeTweet converts a tweet to its wire form. lookup resolves mention
// ids to screen names; oracle controls ground-truth exposure.
func encodeTweet(t *socialnet.Tweet, lookup func(socialnet.AccountID) *socialnet.Account, oracle bool) Tweet {
	author := lookup(t.AuthorID)
	wire := Tweet{
		ID:        int64(t.ID),
		CreatedAt: t.CreatedAt.Format(time.RFC3339Nano),
		Text:      t.Text,
		Kind:      t.Kind.String(),
		Source:    t.Source.String(),
		Topic:     t.Topic,
		Entities: Entities{
			Hashtags: append([]string(nil), t.Hashtags...),
			URLs:     append([]string(nil), t.URLs...),
		},
	}
	if author != nil {
		wire.User = encodeUser(author)
	}
	for _, id := range t.Mentions {
		m := Mention{ID: int64(id)}
		if a := lookup(id); a != nil {
			m.ScreenName = a.ScreenName
		}
		wire.Entities.Mentions = append(wire.Entities.Mentions, m)
	}
	if oracle {
		spam := t.Spam
		campaign := t.CampaignID
		wire.Spam = &spam
		wire.CampaignID = &campaign
	}
	return wire
}
