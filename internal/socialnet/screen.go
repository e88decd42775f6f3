package socialnet

import (
	"math/rand"
	"slices"
	"time"
)

// DefaultTolerance is the relative band used when matching numeric sample
// values during account screening.
const DefaultTolerance = 0.35

// ScreenQuery is an account-screening request: find candidate
// pseudo-honeypot nodes satisfying a selector. It is the in-process
// equivalent of the account filtering the paper performs through the
// Twitter search/streaming APIs.
type ScreenQuery struct {
	Selector Selector

	// Count is the number of accounts to return.
	Count int

	// Tolerance is the relative band for numeric sample values;
	// non-positive values use DefaultTolerance.
	Tolerance float64

	// ActiveOnly keeps only accounts in Active status (paper §III-D);
	// ActiveWindow defaults to 24h.
	ActiveOnly   bool
	ActiveWindow time.Duration

	// Exclude lists accounts that must not be selected (e.g. nodes
	// already used in a previous rotation).
	Exclude map[AccountID]struct{}

	// MaxFriendFollowerRatio drops candidates whose friend/follower
	// ratio exceeds the bound — basic selection hygiene against
	// follow-heavy spam accounts (the pseudo-honeypot harnesses *normal*
	// users). Zero or negative disables the filter.
	MaxFriendFollowerRatio float64
}

// Screen returns up to q.Count non-suspended accounts matching the query
// at instant now, sampled uniformly among the matches using rng. The
// returned accounts are shared pointers into the world (profiles mutate as
// the engine runs, as live API lookups would).
//
// Screen scans the world's columnar screening index (DESIGN.md "Screening
// index"), which it rebuilds when now or the world changed since the last
// call. It therefore writes cached state: like every other World method it
// must run on the goroutine that drives the world's Engine.
func (w *World) Screen(q ScreenQuery, now time.Time, rng *rand.Rand) []*Account {
	if q.Count <= 0 {
		return nil
	}
	tol := q.Tolerance
	if tol <= 0 {
		tol = DefaultTolerance
	}
	window := q.ActiveWindow
	if window <= 0 {
		window = 24 * time.Hour
	}
	ix := &w.screen
	ix.refresh(w, now)

	// The selector's own test runs first, alone, over its one contiguous
	// column: it is the most selective predicate. All predicates are
	// pure, so their order does not change the match set.
	cand := ix.candidates(w, q.Selector, tol)

	var ratio []float64
	if q.MaxFriendFollowerRatio > 0 {
		ratio = ix.cols[AttrFriendFollowerRatio]
	}
	matches := cand[:0]
	for _, i := range cand {
		f := ix.flags[i]
		if f&flagSuspended != 0 {
			continue
		}
		if q.ActiveOnly && (f&flagEngaged == 0 || ix.idle[i] > window) {
			continue
		}
		if ratio != nil && ratio[i] > q.MaxFriendFollowerRatio {
			continue
		}
		if _, excluded := q.Exclude[ix.ids[i]]; excluded {
			continue
		}
		matches = append(matches, i)
	}
	if len(matches) == 0 {
		return nil
	}
	n := len(matches)
	if n > q.Count {
		// Partial Fisher–Yates: sample Count of the matches uniformly.
		n = q.Count
		for i := 0; i < n; i++ {
			j := i + rng.Intn(len(matches)-i)
			matches[i], matches[j] = matches[j], matches[i]
		}
	}
	out := make([]*Account, n)
	for i, m := range matches[:n] {
		out[i] = w.accounts[m]
	}
	return out
}

// candidates returns, in w.accounts order, the indices of the accounts the
// selector matches (Selector.Matches, decided on the columns). The result
// lives in ix.scratch until the next call.
func (ix *screenIndex) candidates(w *World, sel Selector, tol float64) []int32 {
	cand := ix.scratch[:0]
	switch {
	case sel.Attr == AttrHashtag:
		for i, c := range ix.category {
			if c == sel.Category {
				cand = append(cand, int32(i))
			}
		}
	case sel.Attr == AttrTrend:
		for i, s := range ix.trend {
			if s == sel.Trend {
				cand = append(cand, int32(i))
			}
		}
	case sel.Attr.Numeric():
		// The hot loop: ≈ 110 of a rotation's ≈ 150 queries × every
		// account. Band hits are unpredictable, so the index is stored
		// unconditionally and kept by advancing k with the comparison's
		// 0/1 — no branch to mispredict (3× faster than if+append).
		lo, hi := sel.Value*(1-tol), sel.Value*(1+tol)
		cand = cand[:ix.n]
		k := 0
		for i, v := range ix.column(w, sel.Attr) {
			cand[k] = int32(i)
			k += b2i(v >= lo) & b2i(v <= hi)
		}
		cand = cand[:k]
	default:
		// AttrRandom matches everyone. So does an attribute outside the
		// table when 0 — its Attribute.Value on every account — lies
		// in the band; otherwise it matches no one.
		if sel.Attr != AttrRandom {
			lo, hi := sel.Value*(1-tol), sel.Value*(1+tol)
			if !(0 >= lo && 0 <= hi) {
				break
			}
		}
		for i := range ix.flags {
			cand = append(cand, int32(i))
		}
	}
	return cand
}

// b2i is 1 for true, 0 for false; the compiler turns it into a flag move.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Flag bits of screenIndex.flags.
const (
	flagSuspended uint8 = 1 << iota
	// flagEngaged marks an account that has posted and holds recent
	// mentions — the two parts of Account.Active that do not depend on
	// the query's window.
	flagEngaged
)

// screenIndex is the columnar snapshot of the fields screening reads, one
// entry per account in w.accounts order. Every query of a rotation scans
// the same unchanged world, so the index is built once per (now, world
// state) and the 123+ queries that follow read contiguous columns instead
// of dereferencing every *Account again. Buffers are reused across
// rebuilds.
type screenIndex struct {
	// The key: the index is current while all three still hold. (The
	// zero index is keyed to an empty world, which it describes.)
	now time.Time
	n   int
	gen uint64

	ids      []AccountID
	flags    []uint8
	idle     []time.Duration // now − lastPostAt; meaningful under flagEngaged
	category []HashtagCategory
	trend    []TrendState

	// cols[a] is numeric Attribute a's value on every account, by the
	// float expressions of Attribute.Value, so a band decision on the
	// column is bit-identical to Selector.Matches. The ratio column is
	// part of every rebuild (a rotation bounds the ratio in nearly every
	// query); the first numeric selector after a rebuild fills the
	// others, all in one more pass over the accounts (numeric).
	cols    [AttrStatusesPerDay + 1][]float64
	numeric bool

	// scratch holds a scan's candidate indices into w.accounts; its
	// capacity is the population, so a scan never grows it.
	scratch []int32
}

// refresh rebuilds the always-present columns unless the index still
// describes the world at instant now. The instant is compared with ==, not
// Equal: a spurious mismatch only costs a rebuild.
func (ix *screenIndex) refresh(w *World, now time.Time) {
	if ix.now == now && ix.n == len(w.accounts) && ix.gen == w.generation {
		return
	}
	n := len(w.accounts)
	ix.now, ix.n, ix.gen = now, n, w.generation
	ix.numeric = false
	ix.scratch = slices.Grow(ix.scratch[:0], n)
	ix.ids = resize(ix.ids, n)
	ix.flags = resize(ix.flags, n)
	ix.idle = resize(ix.idle, n)
	ix.category = resize(ix.category, n)
	ix.trend = resize(ix.trend, n)
	ratio := resize(ix.cols[AttrFriendFollowerRatio], n)
	ix.cols[AttrFriendFollowerRatio] = ratio
	for i, a := range w.accounts {
		var f uint8
		if a.Suspended {
			f |= flagSuspended
		}
		if !a.lastPostAt.IsZero() && a.recentMentions > 0 {
			f |= flagEngaged
		}
		ix.ids[i] = a.ID
		ix.flags[i] = f
		ix.idle[i] = now.Sub(a.lastPostAt)
		ix.category[i] = a.HashtagCategory
		ix.trend[i] = a.TrendAffinity
		ratio[i] = a.FriendFollowerRatio()
	}
}

// column returns the numeric attribute's column, filling all of them on
// the first use since the last rebuild.
func (ix *screenIndex) column(w *World, attr Attribute) []float64 {
	if !ix.numeric {
		ix.numeric = true
		ix.fillNumeric(w)
	}
	return ix.cols[attr]
}

// fillNumeric computes every numeric column but the ratio's in one pass.
// It spells out Attribute.Value's expressions so that an account's age is
// derived once rather than four times; TestScreenMatchesReferenceScan
// holds every column equal to Attribute.Value, bit for bit.
func (ix *screenIndex) fillNumeric(w *World) {
	for _, attr := range ProfileAttributes {
		if attr != AttrFriendFollowerRatio {
			ix.cols[attr] = resize(ix.cols[attr], ix.n)
		}
	}
	var (
		friends, followers = ix.cols[AttrFriends], ix.cols[AttrFollowers]
		total, age         = ix.cols[AttrTotalFriendsFollowers], ix.cols[AttrAgeDays]
		lists, listsDay    = ix.cols[AttrLists], ix.cols[AttrListsPerDay]
		favs, favsDay      = ix.cols[AttrFavourites], ix.cols[AttrFavouritesPerDay]
		stats, statsDay    = ix.cols[AttrStatuses], ix.cols[AttrStatusesPerDay]
	)
	for i, a := range w.accounts {
		days := a.AgeDays(ix.now)
		friends[i] = float64(a.FriendsCount)
		followers[i] = float64(a.FollowersCount)
		total[i] = float64(a.FriendsCount + a.FollowersCount)
		age[i] = days
		lists[i] = float64(a.ListedCount)
		listsDay[i] = perDay(a.ListedCount, days)
		favs[i] = float64(a.FavouritesCount)
		favsDay[i] = perDay(a.FavouritesCount, days)
		stats[i] = float64(a.StatusesCount)
		statsDay[i] = perDay(a.StatusesCount, days)
	}
}

// resize returns s with length n, reusing its array when large enough. The
// contents are unspecified: callers overwrite every element.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}
