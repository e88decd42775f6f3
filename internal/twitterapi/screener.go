package twitterapi

import (
	"context"
	"net/url"
	"slices"
	"strconv"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/imagehash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// Screen runs one of the pseudo-honeypot monitor's screening queries
// through POST /1.1/users/search and decodes the selected profiles. The
// server applies the ratio bound and the exclusions before it samples,
// exactly as World.Screen does in-process; the exclusions travel in the
// form body, since the used set of a long run outgrows a URL, in
// ascending id order.
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
	// Ascending, so equal queries send equal bodies.
	if ids := q.Exclude.AppendIDs(nil); len(ids) > 0 {
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
// honoured only when present (evaluation streams). The result shares no
// slice with t.
func DecodeTweet(t *Tweet) (*socialnet.Tweet, *socialnet.Account) {
	if t == nil {
		return nil, nil
	}
	createdAt, err := time.Parse(time.RFC3339Nano, t.CreatedAt)
	if err != nil {
		createdAt = time.Time{}
	}
	out := &socialnet.Tweet{
		ID:         socialnet.TweetID(t.ID),
		AuthorID:   socialnet.AccountID(t.User.ID),
		CreatedAt:  createdAt,
		Kind:       parseKind(t.Kind),
		Source:     parseSource(t.Source),
		Text:       t.Text,
		Hashtags:   slices.Clone(t.Entities.Hashtags),
		URLs:       slices.Clone(t.Entities.URLs),
		Topic:      t.Topic,
		CampaignID: socialnet.NoCampaign,
	}
	for _, m := range t.Entities.Mentions {
		out.Mentions = append(out.Mentions, socialnet.AccountID(m.ID))
	}
	if t.Spam != nil {
		out.Spam = *t.Spam
	}
	if t.CampaignID != nil {
		out.CampaignID = *t.CampaignID
	}
	return out, DecodeUser(&t.User)
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
	a := &socialnet.Account{
		ID:                  socialnet.AccountID(u.ID),
		ScreenName:          u.ScreenName,
		Name:                u.Name,
		Description:         u.Description,
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
