package socialnet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/simclock"
)

// referenceScreen is World.Screen as it was before the columnar screening
// index: one pass over the accounts, every predicate evaluated on the live
// *Account. It is the oracle of the differential tests below and must not
// be "optimized" to share code with the index.
func referenceScreen(w *World, q ScreenQuery, now time.Time, rng *rand.Rand) []*Account {
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

	var matches []*Account
	for _, a := range w.accounts {
		if a.Suspended {
			continue
		}
		if q.Exclude.Has(a.ID) {
			continue
		}
		if q.ActiveOnly && !a.Active(now, window) {
			continue
		}
		if q.MaxFriendFollowerRatio > 0 &&
			a.FriendFollowerRatio() > q.MaxFriendFollowerRatio {
			continue
		}
		if !q.Selector.Matches(a, now, tol) {
			continue
		}
		matches = append(matches, a)
	}
	if len(matches) <= q.Count {
		return matches
	}
	for i := 0; i < q.Count; i++ {
		j := i + rng.Intn(len(matches)-i)
		matches[i], matches[j] = matches[j], matches[i]
	}
	return matches[:q.Count]
}

// screenChecker runs every query through World.Screen and referenceScreen
// with twin sampling rngs and fails on the first difference in accounts,
// order, or rng state.
type screenChecker struct {
	t         *testing.T
	w         *World
	gen       *rand.Rand // draws the queries
	got, want *rand.Rand // twin sampling rngs

	checks, nonEmpty, sampled, activeHits int
}

func newScreenChecker(t *testing.T, w *World, seed int64) *screenChecker {
	return &screenChecker{
		t: t, w: w,
		gen:  rand.New(rand.NewSource(seed)),
		got:  rand.New(rand.NewSource(seed + 1000)),
		want: rand.New(rand.NewSource(seed + 1000)),
	}
}

func (c *screenChecker) check(where string, q ScreenQuery, now time.Time) []*Account {
	c.t.Helper()
	got := c.w.Screen(q, now, c.got)
	want := referenceScreen(c.w, q, now, c.want)
	desc := fmt.Sprintf("%s: %+v at %s", where, describeQuery(q), now.Format(time.RFC3339Nano))
	if len(got) != len(want) || (got == nil) != (want == nil) {
		c.t.Fatalf("%s: Screen returned %d accounts (nil=%t), reference %d (nil=%t)",
			desc, len(got), got == nil, len(want), want == nil)
	}
	for i := range got {
		if got[i] != want[i] {
			c.t.Fatalf("%s: result[%d] = account %d, reference %d",
				desc, i, got[i].ID, want[i].ID)
		}
	}
	if g, w := c.got.Int63(), c.want.Int63(); g != w {
		c.t.Fatalf("%s: sampling rng diverged after the call", desc)
	}
	c.checks++
	if len(got) > 0 {
		c.nonEmpty++
		if q.ActiveOnly {
			c.activeHits++
		}
		if len(got) == q.Count {
			c.sampled++
		}
	}
	return got
}

// describeQuery drops the exclusion set's contents from failure messages.
func describeQuery(q ScreenQuery) string {
	ex := len(q.Exclude.AppendIDs(nil))
	q.Exclude = nil
	return fmt.Sprintf("%+v exclude=%d", q, ex)
}

func pick[T any](rng *rand.Rand, vs ...T) T { return vs[rng.Intn(len(vs))] }

// randomQuery draws a query over all 14 attributes and two values outside
// the table, with sample values taken from real accounts (so bands hit),
// from zero, and from the negative range.
func (c *screenChecker) randomQuery(now time.Time) ScreenQuery {
	rng := c.gen
	sel := Selector{
		Attr:     Attribute(rng.Intn(int(AttrRandom) + 3)), // 0 and 15, 16 are out of range
		Category: pick(rng, append([]HashtagCategory{HashtagNone}, HashtagCategories...)...),
		Trend:    pick(rng, TrendStates...),
	}
	switch donor := c.w.accounts[rng.Intn(len(c.w.accounts))]; rng.Intn(6) {
	case 0:
		sel.Value = 0
	case 1:
		sel.Value = -3
	case 2:
		sel.Value = float64(rng.Intn(5000))
	default:
		sel.Value = sel.Attr.Value(donor, now) * pick(rng, 1, 1, 0.8, 1.5)
	}
	q := ScreenQuery{
		Selector:               sel,
		Count:                  pick(rng, 1, 3, 10, 40, 100000),
		Tolerance:              pick(rng, 0, -1, 0.05, 0.35, 1, 2.5),
		ActiveOnly:             rng.Intn(2) == 0,
		ActiveWindow:           pick(rng, 0, -time.Hour, 20*time.Minute, 2*time.Hour, 24*time.Hour, 1<<62),
		MaxFriendFollowerRatio: pick(rng, 0, -1, 0.5, 2, 10),
	}
	switch rng.Intn(4) {
	case 0: // nil
	case 1:
		q.Exclude = &AccountSet{}
	default:
		q.Exclude = &AccountSet{}
		share := rng.Float64() * 0.7
		for _, a := range c.w.accounts {
			if rng.Float64() < share {
				q.Exclude.Add(a.ID)
			}
		}
	}
	return q
}

func (c *screenChecker) burst(where string, now time.Time, n int) {
	c.t.Helper()
	for i := 0; i < n; i++ {
		c.check(where, c.randomQuery(now), now)
	}
	c.checkColumns(where, now)
}

// checkColumns holds the index's numeric columns, which spell out
// Attribute.Value's expressions, equal to Attribute.Value itself.
func (c *screenChecker) checkColumns(where string, now time.Time) {
	c.t.Helper()
	for _, attr := range ProfileAttributes {
		c.w.Screen(ScreenQuery{Selector: Selector{Attr: attr}, Count: 1}, now, c.gen)
		col := c.w.screen.cols[attr]
		if len(col) != len(c.w.accounts) {
			c.t.Fatalf("%s: %s column has %d entries for %d accounts", where, attr, len(col), len(c.w.accounts))
		}
		for i, a := range c.w.accounts {
			if want := attr.Value(a, now); col[i] != want {
				c.t.Fatalf("%s: %s column holds %v for account %d, Attribute.Value says %v",
					where, attr, col[i], a.ID, want)
			}
		}
	}
}

// alternate screens at one instant under more (ActiveOnly, window, ratio
// bound) combinations than the index keeps views for, each twice in a row
// and the whole cycle twice, so views are both reused and rebuilt. Some
// combinations differ only in a parameter their view ignores (a window
// without ActiveOnly, the default window spelled out).
func (c *screenChecker) alternate(where string, now time.Time) {
	c.t.Helper()
	combos := []struct {
		active bool
		window time.Duration
		bound  float64
	}{
		{true, 0, 10}, {false, 0, 10}, {true, 0, 0}, {false, 0, -1},
		{true, 2 * time.Hour, 10}, {false, time.Hour, 2}, {true, 24 * time.Hour, 10},
		{false, 0, 10}, {true, 20 * time.Minute, 0.5},
	}
	for round := 0; round < 2; round++ {
		for _, cb := range combos {
			for rep := 0; rep < 2; rep++ {
				q := c.randomQuery(now)
				q.ActiveOnly, q.ActiveWindow, q.MaxFriendFollowerRatio = cb.active, cb.window, cb.bound
				c.check(where, q, now)
			}
		}
	}
}

// rotate screens like core.Monitor.Rotate does: a plan of selectors with
// ActiveOnly, the ratio bound and the monitor's growing exclusion set.
func (c *screenChecker) rotate(where string, used *AccountSet, now time.Time) {
	c.t.Helper()
	for i := 0; i < 8; i++ {
		q := c.randomQuery(now)
		q.Count = 6
		q.ActiveOnly = true
		q.Tolerance, q.ActiveWindow = 0, 0
		q.MaxFriendFollowerRatio = 10
		q.Exclude = used
		nodes := c.check(where, q, now)
		if len(nodes) < q.Count {
			q.ActiveOnly = false
			nodes = c.check(where+" (dormant fallback)", q, now)
		}
		for _, a := range nodes {
			used.Add(a.ID)
		}
	}
}

// TestScreenMatchesReferenceScan is the differential property test for the
// screening index: over random worlds and queries, interleaved with every
// kind of engine activity that can separate two Screen calls, World.Screen
// must return what the pre-index scan returns and leave the rng where it
// leaves it.
func TestScreenMatchesReferenceScan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.NumAccounts = 300 + 120*int(seed)
		cfg.OrganicTweetsPerHour = 150
		cfg.SuspensionRatePerHour = 0.02
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(w)
		c := newScreenChecker(t, w, seed)

		c.burst("cold world", simclock.Epoch, 60)
		c.alternate("cold world, alternating views", simclock.Epoch)

		// Two monitors share the world and rotate in the same hour hook
		// round: the second reads the index the first one built.
		for m := 0; m < 2; m++ {
			used := &AccountSet{}
			name := fmt.Sprintf("monitor %d hour hook", m)
			e.OnHourStart(func(_ int, now time.Time) { c.rotate(name, used, now) })
		}
		var hourStart time.Time
		e.OnHourStart(func(_ int, now time.Time) { hourStart = now })
		tweets := 0
		e.Subscribe(func(*Tweet) {
			tweets++
			switch tweets % 13 {
			case 0, 1:
				// Two consecutive callbacks screen at one instant (the
				// hour hook's), with nothing but an emit in between.
				c.burst("subscriber at the hour hook's instant", hourStart, 3)
			case 6:
				c.burst("subscriber mid-hour", e.Now(), 3)
			}
		})

		for h := 0; h < 5; h++ {
			e.RunHours(1)
			now := e.Now()
			c.burst("between hours", now, 10)
			c.alternate("alternating views", now)
			switch h {
			case 1:
				w.AddAccount(&Account{
					ScreenName: "late_joiner", CreatedAt: now.Add(-90 * 24 * time.Hour),
					FriendsCount: 120, FollowersCount: 300, ListedCount: 4,
					FavouritesCount: 80, StatusesCount: 900,
					HashtagCategory: HashtagSocial, TrendAffinity: TrendUp,
				})
				c.burst("after AddAccount", now, 20)
			case 2:
				w.SpawnSpammer(now)
				c.burst("after SpawnSpammer", now, 20)
			case 3:
				if w.AdvanceSuspensions(400, rand.New(rand.NewSource(seed))) == 0 {
					t.Fatal("AdvanceSuspensions suspended no one; the test needs it to")
				}
				c.burst("after AdvanceSuspensions", now, 20)
			}
		}
		if tweets == 0 {
			t.Fatal("engine emitted nothing")
		}
		// Guard against a vacuous pass.
		if c.nonEmpty < c.checks/5 || c.sampled < 50 || c.activeHits < 50 {
			t.Fatalf("seed %d: weak coverage: %d checks, %d non-empty, %d sampled, %d active-only hits",
				seed, c.checks, c.nonEmpty, c.sampled, c.activeHits)
		}
	}
}

// FuzzScreen holds World.Screen to referenceScreen on arbitrary queries:
// attributes, categories and trend states outside their tables; sample
// values 0, negative, NaN and ±Inf; any tolerance (≥ 1 included), window,
// ratio bound (NaN included) and count; and exclusion sets holding ids
// outside the world (0, negative, past the last id, 1<<62, another
// namespace). Every input must return the same accounts, in the same
// order, and leave the sampling rng in the state the reference leaves it.
// The world is shared and a few instants recur, so the screening index and
// its views are both reused and rebuilt across inputs.
func FuzzScreen(f *testing.F) {
	cfg := DefaultConfig()
	cfg.NumAccounts = 400
	cfg.OrganicTweetsPerHour = 150
	w, err := NewWorld(cfg)
	if err != nil {
		f.Fatal(err)
	}
	e := NewEngine(w)
	e.RunHours(3)
	base := e.Now()
	n := int64(w.NumAccounts())

	inf, nan := math.Inf(1), math.NaN()
	f.Add(int(AttrFollowers), 0, 150.0, 0.0, true, int64(0), 10.0, 6, int64(0), []byte{4, 1, 2, 4, 3, 4})
	f.Add(int(AttrListsPerDay), 0, 0.0, 1.0, true, int64(time.Hour), 10.0, 3, int64(1), []byte{0, 1, 200, 1, 0, 9})
	f.Add(int(AttrAgeDays), 0, -3.0, 2.5, false, int64(-1), nan, 1<<40, int64(2), []byte{2, 0, 0, 3, 0, 1})
	f.Add(int(AttrFriendFollowerRatio), 0, nan, 0.35, true, int64(1<<62), 2.0, 40, int64(-1), []byte{})
	f.Add(int(AttrStatuses), 0, inf, nan, false, int64(0), inf, 100000, int64(3), []byte{4, 0, 7})
	f.Add(int(AttrFavourites), 0, -inf, -1.0, true, int64(20*time.Minute), -1.0, 0, int64(0), []byte{1, 0, 5})
	f.Add(int(AttrHashtag), int(HashtagSocial), 0.0, 0.0, true, int64(0), 10.0, 5, int64(0), []byte{4, 0, 1})
	f.Add(int(AttrHashtag), 99, 0.0, 0.0, false, int64(0), 0.0, 5, int64(0), []byte{})
	f.Add(int(AttrTrend), int(TrendUp), 0.0, 0.0, true, int64(0), 10.0, -4, int64(1), []byte{})
	f.Add(int(AttrTrend), -7, 0.0, 0.0, false, int64(0), 10.0, 9, int64(1), []byte{})
	f.Add(int(AttrRandom), 0, 0.0, 0.0, true, int64(0), 10.0, 7, int64(2), []byte{4, 9, 9, 4, 8, 8})
	f.Add(0, 0, 0.0, 0.0, false, int64(0), 0.0, 7, int64(0), []byte{})
	f.Add(16, 0, 5.0, 0.35, false, int64(0), 0.0, 7, int64(0), []byte{})
	f.Add(-1, 0, 0.0, nan, true, int64(0), 10.0, 7, int64(0), []byte{})
	f.Add(1<<40, 0, -0.0, 3.0, false, int64(0), 10.0, 7, int64(0), []byte{})

	f.Fuzz(func(t *testing.T, attr, class int, value, tol float64, active bool, window int64,
		bound float64, count int, at int64, exclude []byte) {
		q := ScreenQuery{
			Selector: Selector{
				Attr: Attribute(attr), Value: value,
				Category: HashtagCategory(class), Trend: TrendState(class),
			},
			Count:                  count,
			Tolerance:              tol,
			ActiveOnly:             active,
			ActiveWindow:           time.Duration(window),
			MaxFriendFollowerRatio: bound,
		}
		if len(exclude) > 0 {
			q.Exclude = &AccountSet{}
			for ; len(exclude) >= 3; exclude = exclude[3:] {
				v := int64(exclude[1])<<8 | int64(exclude[2])
				switch exclude[0] % 5 {
				case 0: // around the population: 0 and past the last id
					q.Exclude.Add(AccountID(v % (n + 20)))
				case 1:
					q.Exclude.Add(AccountID(-v))
				case 2:
					q.Exclude.Add(AccountID(1<<62 + v))
				case 3: // the same id in namespace 1
					q.Exclude.Add(AccountID(1<<NamespaceShift + v%n + 1))
				default:
					q.Exclude.Add(AccountID(v%n + 1))
				}
			}
		}
		c := newScreenChecker(t, w, at)
		c.check("fuzz", q, base.Add(time.Duration(at%3)*time.Hour))
	})
}

// TestAccountSet holds the set to a map over ids of several namespaces,
// with ids it must ignore.
func TestAccountSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s AccountSet
	want := make(map[AccountID]bool)
	draw := func() AccountID {
		id := AccountID(rng.Intn(3000))
		switch rng.Intn(4) {
		case 0:
			id += AccountID(rng.Intn(3)) << NamespaceShift
		case 1:
			id = -id
		}
		return id
	}
	for i := 0; i < 2000; i++ {
		id := draw()
		s.Add(id)
		if id > 0 {
			want[id] = true
		}
	}
	for i := 0; i < 20000; i++ {
		if id := draw(); s.Has(id) != want[id] {
			t.Fatalf("Has(%d) = %t, want %t", id, s.Has(id), want[id])
		}
	}
	ids := s.AppendIDs(nil)
	if len(ids) != len(want) || !slices.IsSorted(ids) {
		t.Fatalf("AppendIDs gave %d ids (sorted %t), want %d ascending", len(ids), slices.IsSorted(ids), len(want))
	}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("AppendIDs gave %d, which was never added", id)
		}
	}
	perNS := make(map[AccountID]int)
	for id := range want {
		perNS[id>>NamespaceShift]++
	}
	for ns := 0; ns < 4; ns++ {
		page := s.Namespace(ns)
		got := page.AppendIDs(nil)
		for _, id := range got {
			if full := id + AccountID(ns)<<NamespaceShift; id>>NamespaceShift != 0 || !want[full] {
				t.Fatalf("Namespace(%d) holds %d, want only namespace %d's ids moved to 0", ns, id, ns)
			}
		}
		if len(got) != perNS[AccountID(ns)] {
			t.Fatalf("Namespace(%d) holds %d ids, want %d", ns, len(got), perNS[AccountID(ns)])
		}
	}
	var empty *AccountSet
	page := empty.Namespace(0)
	if empty.Has(1) || len(empty.AppendIDs(nil)) != 0 || len(page.AppendIDs(nil)) != 0 {
		t.Fatal("a nil set is not empty")
	}
}

// screenedState hashes every field Screen reads, on every account, in
// w.accounts order.
func screenedState(w *World) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v int64) { h = (h ^ uint64(v)) * 1099511628211 }
	mix(int64(len(w.accounts)))
	for _, a := range w.accounts {
		mix(int64(a.ID))
		if a.Suspended {
			mix(1)
		}
		mix(a.lastPostAt.UnixNano())
		mix(int64(a.recentMentions))
		mix(a.CreatedAt.UnixNano())
		mix(int64(a.FriendsCount))
		mix(int64(a.FollowersCount))
		mix(int64(a.ListedCount))
		mix(int64(a.FavouritesCount))
		mix(int64(a.StatusesCount))
		mix(int64(a.HashtagCategory))
		mix(int64(a.TrendAffinity))
	}
	return h
}

// TestScreenedWritesAdvanceGeneration fails when an in-package mutation
// site forgets World.profilesChanged: at every point where a caller could
// screen — hour hooks, subscriber callbacks, between the exported calls —
// screened state that differs from the previous point's must come with a
// different generation.
func TestScreenedWritesAdvanceGeneration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumAccounts = 500
	cfg.OrganicTweetsPerHour = 120
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w)

	lastState, lastGen := screenedState(w), w.generation
	// observe reports whether the screened state moved since the last
	// observation point.
	observe := func(where string) bool {
		t.Helper()
		state, gen := screenedState(w), w.generation
		moved := state != lastState
		if moved && gen == lastGen {
			t.Fatalf("%s: screened account state changed but the world generation did not advance", where)
		}
		lastState, lastGen = state, gen
		return moved
	}
	mustMove := func(where string) {
		t.Helper()
		if !observe(where) {
			t.Fatalf("%s: screened state did not change; the test no longer exercises this site", where)
		}
	}

	tweets := 0
	e.OnHourStart(func(int, time.Time) { observe("hour hook") })
	e.Subscribe(func(*Tweet) {
		tweets++
		mustMove("subscriber callback (Engine.emit)")
	})
	e.RunHours(2)
	if tweets == 0 {
		t.Fatal("engine emitted nothing")
	}
	observe("after RunHours")

	w.AddAccount(&Account{ScreenName: "late_joiner", FriendsCount: 10, FollowersCount: 10})
	mustMove("AddAccount")
	w.SpawnSpammer(e.Now())
	mustMove("SpawnSpammer")
	if w.AdvanceSuspensions(400, rand.New(rand.NewSource(1))) == 0 {
		t.Fatal("AdvanceSuspensions suspended no one")
	}
	mustMove("AdvanceSuspensions")

	// Hour-start maintenance (mention decay, suspension) is followed by
	// traffic whose emits advance the generation anyway. Silence the
	// traffic so an hour passes in which maintenance is the only writer;
	// replies queued earlier may still land in the first silent hours.
	w.cfg.OrganicTweetsPerHour = 0
	w.cfg.SpammerActiveProb = 0
	w.cfg.SpammerChurn = false
	w.cfg.SuspensionRatePerHour = 0.2
	w.cfg.FalseSuspensionRatePerHour = 0.2
	for h := 0; ; h++ {
		if h == 24 {
			t.Fatal("no tweet-free hour in 24 silent hours")
		}
		before := tweets
		e.RunHours(1)
		if tweets == before {
			mustMove("hour-start maintenance in runHour")
			break
		}
		observe("after RunHours")
	}
}

func TestByScreenNameFirstRegisteredWins(t *testing.T) {
	w := newTestWorld(t)
	// The generated population: every name resolves to its first holder
	// in account order, as the linear scan it replaces did.
	first := make(map[string]*Account)
	dups := 0
	for _, a := range w.accounts {
		if _, seen := first[a.ScreenName]; seen {
			dups++
			continue
		}
		first[a.ScreenName] = a
	}
	for name, want := range first {
		if got := w.ByScreenName(name); got != want {
			t.Fatalf("ByScreenName(%q) = account %d, want first holder %d", name, got.ID, want.ID)
		}
	}

	holder := w.accounts[10]
	squatter := &Account{ScreenName: holder.ScreenName}
	w.AddAccount(squatter)
	if got := w.ByScreenName(holder.ScreenName); got != holder {
		t.Fatalf("a later account took over %q", holder.ScreenName)
	}
	a, b := &Account{ScreenName: "brand_new_name"}, &Account{ScreenName: "brand_new_name"}
	w.AddAccount(a)
	w.AddAccount(b)
	if got := w.ByScreenName("brand_new_name"); got != a {
		t.Fatal("ByScreenName after AddAccount did not return the first registered account")
	}
	spawned := w.SpawnSpammer(simclock.Epoch)
	if got := w.ByScreenName(spawned.ScreenName); got == nil ||
		(got != spawned && first[spawned.ScreenName] != got) {
		t.Fatalf("ByScreenName(%q) after SpawnSpammer = %v", spawned.ScreenName, got)
	}
	t.Logf("%d duplicated names in the generated population", dups)
}

// Matches reports whether acct satisfies the selector at instant now within
// the relative tolerance band tol (e.g. 0.35 accepts values within ±35% of
// the sample value).
func (s Selector) Matches(acct *Account, now time.Time, tol float64) bool {
	switch s.Attr {
	case AttrHashtag:
		return acct.HashtagCategory == s.Category
	case AttrTrend:
		return acct.TrendAffinity == s.Trend
	case AttrRandom:
		return true
	default:
		v := s.Attr.Value(acct, now)
		lo, hi := s.Value*(1-tol), s.Value*(1+tol)
		return v >= lo && v <= hi
	}
}
