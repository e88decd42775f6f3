package twitterapi

import (
	"context"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/imagehash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// Screen runs one of the pseudo-honeypot monitor's screening queries
// through POST /1.1/users/search and decodes the selected profiles. The
// server applies the ratio bound and the exclusions before it samples,
// exactly as World.Screen does in-process; the exclusions travel in the
// form body, since the used set of a long run outgrows a URL.
func (c *Client) Screen(ctx context.Context, q socialnet.ScreenQuery) ([]*socialnet.Account, error) {
	vals := url.Values{
		"attr":  {q.Selector.Attr.Key()},
		"count": {strconv.Itoa(q.Count)},
	}
	switch q.Selector.Attr {
	case socialnet.AttrHashtag:
		vals.Set("category", q.Selector.Category.String())
	case socialnet.AttrTrend:
		vals.Set("trend", trendName(q.Selector.Trend))
	case socialnet.AttrRandom:
	default:
		vals.Set("value", strconv.FormatFloat(q.Selector.Value, 'f', -1, 64))
	}
	if q.Tolerance > 0 {
		vals.Set("tolerance", strconv.FormatFloat(q.Tolerance, 'f', -1, 64))
	}
	if q.ActiveOnly {
		vals.Set("active", "1")
	}
	if q.MaxFriendFollowerRatio > 0 {
		vals.Set("max_ratio", strconv.FormatFloat(q.MaxFriendFollowerRatio, 'f', -1, 64))
	}
	if len(q.Exclude) > 0 {
		ids := make([]int64, 0, len(q.Exclude))
		for id := range q.Exclude {
			ids = append(ids, int64(id))
		}
		vals.Set("exclude", joinIDs(ids))
	}
	req, err := c.newFormRequest(ctx, "/1.1/users/search.json", vals)
	if err != nil {
		return nil, err
	}
	var users []User
	if err := c.do(req, &users); err != nil {
		return nil, err
	}
	out := make([]*socialnet.Account, len(users))
	for i := range users {
		out[i] = DecodeUser(&users[i])
	}
	return out, nil
}

// DecodeTweet reconstructs a tweet (and its author profile) from the wire
// form, for monitors running against a remote stream. Oracle fields are
// honoured only when present (evaluation streams). The result owns all of
// its memory — strings are copied out of the wire form — so it is safe to
// retain from a Stream handler even though the stream decoder reuses its
// buffers (see StreamConn.Next).
func DecodeTweet(t *Tweet) (*socialnet.Tweet, *socialnet.Account) {
	if t == nil {
		return nil, nil
	}
	var s TweetScratch
	return s.Convert(t).Clone(), DecodeUser(&t.User)
}

// convertTweet fills dst from the wire tweet without copying string data:
// dst's strings alias t's. The caller decides ownership.
func convertTweet(t *Tweet, dst *socialnet.Tweet) {
	createdAt, err := time.Parse(time.RFC3339Nano, t.CreatedAt)
	if err != nil {
		createdAt = time.Time{}
	}
	dst.ID = socialnet.TweetID(t.ID)
	dst.AuthorID = socialnet.AccountID(t.User.ID)
	dst.CreatedAt = createdAt
	dst.Kind = parseKind(t.Kind)
	dst.Source = parseSource(t.Source)
	dst.Text = t.Text
	dst.Hashtags = append(dst.Hashtags[:0], t.Entities.Hashtags...)
	dst.URLs = append(dst.URLs[:0], t.Entities.URLs...)
	dst.Topic = t.Topic
	dst.Mentions = dst.Mentions[:0]
	for _, m := range t.Entities.Mentions {
		dst.Mentions = append(dst.Mentions, socialnet.AccountID(m.ID))
	}
	dst.Spam = false
	dst.CampaignID = socialnet.NoCampaign
	if t.Spam != nil {
		dst.Spam = *t.Spam
	}
	if t.CampaignID != nil {
		dst.CampaignID = *t.CampaignID
	}
}

// TweetScratch converts wire tweets into a reusable socialnet.Tweet with
// no per-tweet allocations: Convert's result and its strings alias both
// the scratch and the wire tweet, valid only until the next Convert.
// Retainers must call socialnet's Tweet.Clone. This is the conversion
// counterpart of StreamDecoder for allocation-free stream processing;
// DecodeTweet remains the owning (copying) form.
type TweetScratch struct {
	t socialnet.Tweet
}

// Convert fills the scratch tweet from wt and returns it.
func (s *TweetScratch) Convert(wt *Tweet) *socialnet.Tweet {
	convertTweet(wt, &s.t)
	return &s.t
}

func parseKind(s string) socialnet.TweetKind {
	switch s {
	case "retweet":
		return socialnet.KindRetweet
	case "quote":
		return socialnet.KindQuote
	default:
		return socialnet.KindTweet
	}
}

func parseSource(s string) socialnet.Source {
	switch s {
	case "web":
		return socialnet.SourceWeb
	case "mobile":
		return socialnet.SourceMobile
	case "third-party":
		return socialnet.SourceThirdParty
	default:
		return socialnet.SourceOther
	}
}

// DecodeUser reconstructs an account profile from its wire form. The
// result carries only the publicly observable fields (never Kind or
// campaign ground truth) and is detached from any world.
func DecodeUser(u *User) *socialnet.Account {
	if u == nil {
		return nil
	}
	createdAt, err := time.Parse(time.RFC3339, u.CreatedAt)
	if err != nil {
		createdAt = time.Time{}
	}
	// Copy the strings: profiles outlive the stream decoder's scratch
	// buffers (see StreamConn.Next).
	a := &socialnet.Account{
		ID:                  socialnet.AccountID(u.ID),
		ScreenName:          strings.Clone(u.ScreenName),
		Name:                strings.Clone(u.Name),
		Description:         strings.Clone(u.Description),
		CreatedAt:           createdAt,
		FriendsCount:        u.FriendsCount,
		FollowersCount:      u.FollowersCount,
		ListedCount:         u.ListedCount,
		FavouritesCount:     u.FavouritesCount,
		StatusesCount:       u.StatusesCount,
		Verified:            u.Verified,
		DefaultProfileImage: u.DefaultProfile,
		Suspended:           u.Suspended,
		Kind:                socialnet.KindNormal, // wire carries no ground truth
		CampaignID:          socialnet.NoCampaign,
	}
	if len(u.ProfileImageHash) == 32 {
		if hi, err := strconv.ParseUint(u.ProfileImageHash[:16], 16, 64); err == nil {
			if lo, err := strconv.ParseUint(u.ProfileImageHash[16:], 16, 64); err == nil {
				a.ProfileImageHash = imagehash.Hash{Hi: hi, Lo: lo}
			}
		}
	}
	if u.LastPostAt != "" {
		if lastPost, err := time.Parse(time.RFC3339, u.LastPostAt); err == nil {
			a.SetLastPostAt(lastPost)
		}
	}
	return a
}
