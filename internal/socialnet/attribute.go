package socialnet

import (
	"fmt"
	"strings"
	"time"
)

// Attribute identifies one of the paper's pseudo-honeypot selection
// attributes (Table I): the 11 profile-based attributes (category C1), the
// hashtag-based attributes (C2), the trending-based attributes (C3), and a
// uniform-random pseudo-attribute used by the non-pseudo-honeypot baseline.
type Attribute int

// Profile-based attributes (Table I, C1).
const (
	AttrFriends Attribute = iota + 1
	AttrFollowers
	AttrTotalFriendsFollowers
	AttrFriendFollowerRatio
	AttrAgeDays
	AttrLists
	AttrFavourites
	AttrStatuses
	AttrListsPerDay
	AttrFavouritesPerDay
	AttrStatusesPerDay

	// AttrHashtag selects accounts by hashtag category (Table I, C2).
	AttrHashtag
	// AttrTrend selects accounts by trending behaviour (Table I, C3).
	AttrTrend
	// AttrRandom selects uniformly random accounts (the paper's
	// "non pseudo-honeypot" baseline).
	AttrRandom
)

// ProfileAttributes lists the 11 profile-based attributes in the order of
// the paper's Table II.
var ProfileAttributes = []Attribute{
	AttrFriends, AttrFollowers, AttrTotalFriendsFollowers,
	AttrFriendFollowerRatio, AttrAgeDays, AttrLists, AttrFavourites,
	AttrStatuses, AttrListsPerDay, AttrFavouritesPerDay, AttrStatusesPerDay,
}

func (a Attribute) String() string {
	switch a {
	case AttrFriends:
		return "friends count"
	case AttrFollowers:
		return "followers count"
	case AttrTotalFriendsFollowers:
		return "total friends and followers"
	case AttrFriendFollowerRatio:
		return "ratio of friends and followers"
	case AttrAgeDays:
		return "account age (days)"
	case AttrLists:
		return "lists count"
	case AttrFavourites:
		return "favorites count"
	case AttrStatuses:
		return "statuses count"
	case AttrListsPerDay:
		return "average of lists per day"
	case AttrFavouritesPerDay:
		return "average of favorites per day"
	case AttrStatusesPerDay:
		return "average of statuses per day"
	case AttrHashtag:
		return "hashtag"
	case AttrTrend:
		return "trending"
	case AttrRandom:
		return "random"
	default:
		return "unknown"
	}
}

// Key returns the wire identifier used in API query parameters.
func (a Attribute) Key() string {
	switch a {
	case AttrFriends:
		return "friends_count"
	case AttrFollowers:
		return "followers_count"
	case AttrTotalFriendsFollowers:
		return "total_friends_followers"
	case AttrFriendFollowerRatio:
		return "friend_follower_ratio"
	case AttrAgeDays:
		return "account_age_days"
	case AttrLists:
		return "listed_count"
	case AttrFavourites:
		return "favourites_count"
	case AttrStatuses:
		return "statuses_count"
	case AttrListsPerDay:
		return "lists_per_day"
	case AttrFavouritesPerDay:
		return "favourites_per_day"
	case AttrStatusesPerDay:
		return "statuses_per_day"
	case AttrHashtag:
		return "hashtag"
	case AttrTrend:
		return "trend"
	case AttrRandom:
		return "random"
	default:
		return "unknown"
	}
}

// ParseAttribute resolves a wire identifier back to an Attribute.
func ParseAttribute(key string) (Attribute, error) {
	for a := AttrFriends; a <= AttrRandom; a++ {
		if a.Key() == key {
			return a, nil
		}
	}
	return 0, fmt.Errorf("socialnet: unknown attribute %q", key)
}

// Numeric reports whether the attribute has a numeric sample value
// (the profile-based attributes do; hashtag/trend/random do not).
func (a Attribute) Numeric() bool {
	return a >= AttrFriends && a <= AttrStatusesPerDay
}

// Value evaluates the numeric attribute on acct at instant now. It returns
// 0 for non-numeric attributes.
func (a Attribute) Value(acct *Account, now time.Time) float64 {
	switch a {
	case AttrFriends:
		return float64(acct.FriendsCount)
	case AttrFollowers:
		return float64(acct.FollowersCount)
	case AttrTotalFriendsFollowers:
		return float64(acct.FriendsCount + acct.FollowersCount)
	case AttrFriendFollowerRatio:
		return acct.FriendFollowerRatio()
	case AttrAgeDays:
		return acct.AgeDays(now)
	case AttrLists:
		return float64(acct.ListedCount)
	case AttrFavourites:
		return float64(acct.FavouritesCount)
	case AttrStatuses:
		return float64(acct.StatusesCount)
	case AttrListsPerDay:
		return acct.ListsPerDay(now)
	case AttrFavouritesPerDay:
		return acct.FavouritesPerDay(now)
	case AttrStatusesPerDay:
		return acct.StatusesPerDay(now)
	default:
		return 0
	}
}

// Selector describes one pseudo-honeypot selection criterion: an attribute
// plus its sample value (numeric attributes), hashtag category, or trend
// state.
type Selector struct {
	Attr Attribute

	// Value is the numeric sample value for profile-based attributes
	// (Table II).
	Value float64

	// Category applies when Attr == AttrHashtag.
	Category HashtagCategory

	// Trend applies when Attr == AttrTrend.
	Trend TrendState
}

// String renders the selector for tables and logs, e.g.
// "followers count=10000" or "hashtag: social".
func (s Selector) String() string {
	switch s.Attr {
	case AttrHashtag:
		return "hashtag: " + s.Category.String()
	case AttrTrend:
		return s.Trend.String()
	case AttrRandom:
		return "random"
	default:
		return fmt.Sprintf("%s=%s", s.Attr, FormatSampleValue(s.Value))
	}
}

// FormatSampleValue renders a Table II sample value the way the paper
// prints it (fractions below 1, k-suffixed thousands).
func FormatSampleValue(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 1:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", v), "0"), ".")
	case v >= 1000 && v == float64(int(v)) && int(v)%1000 == 0:
		return fmt.Sprintf("%dk", int(v)/1000)
	default:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", v), "0"), ".")
	}
}
