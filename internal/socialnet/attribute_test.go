package socialnet

import (
	"math/rand"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/simclock"
)

func TestAttributeKeyRoundTrip(t *testing.T) {
	for a := AttrFriends; a <= AttrRandom; a++ {
		got, err := ParseAttribute(a.Key())
		if err != nil {
			t.Fatalf("ParseAttribute(%q): %v", a.Key(), err)
		}
		if got != a {
			t.Fatalf("round trip %v -> %q -> %v", a, a.Key(), got)
		}
	}
	if _, err := ParseAttribute("bogus"); err == nil {
		t.Fatal("ParseAttribute accepted bogus key")
	}
}

func TestAttributeStringsUnique(t *testing.T) {
	seen := make(map[string]Attribute)
	for a := AttrFriends; a <= AttrRandom; a++ {
		s := a.String()
		if s == "unknown" {
			t.Fatalf("attribute %d renders unknown", a)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("attributes %v and %v share name %q", prev, a, s)
		}
		seen[s] = a
	}
}

func TestAttributeNumeric(t *testing.T) {
	for _, a := range ProfileAttributes {
		if !a.Numeric() {
			t.Fatalf("profile attribute %v not numeric", a)
		}
	}
	for _, a := range []Attribute{AttrHashtag, AttrTrend, AttrRandom} {
		if a.Numeric() {
			t.Fatalf("attribute %v should not be numeric", a)
		}
	}
}

func TestAttributeValues(t *testing.T) {
	now := simclock.Epoch
	a := &Account{
		CreatedAt:       now.Add(-200 * 24 * time.Hour),
		FriendsCount:    100,
		FollowersCount:  400,
		ListedCount:     50,
		FavouritesCount: 600,
		StatusesCount:   2000,
	}
	tests := []struct {
		attr Attribute
		want float64
	}{
		{attr: AttrFriends, want: 100},
		{attr: AttrFollowers, want: 400},
		{attr: AttrTotalFriendsFollowers, want: 500},
		{attr: AttrFriendFollowerRatio, want: 0.25},
		{attr: AttrAgeDays, want: 200},
		{attr: AttrLists, want: 50},
		{attr: AttrFavourites, want: 600},
		{attr: AttrStatuses, want: 2000},
		{attr: AttrListsPerDay, want: 0.25},
		{attr: AttrFavouritesPerDay, want: 3},
		{attr: AttrStatusesPerDay, want: 10},
		{attr: AttrHashtag, want: 0},
	}
	for _, tt := range tests {
		if got := tt.attr.Value(a, now); got != tt.want {
			t.Errorf("%v.Value = %v, want %v", tt.attr, got, tt.want)
		}
	}
}

func TestSelectorMatches(t *testing.T) {
	now := simclock.Epoch
	a := &Account{
		CreatedAt:       now.Add(-200 * 24 * time.Hour),
		FriendsCount:    100,
		FollowersCount:  400,
		HashtagCategory: HashtagSocial,
		TrendAffinity:   TrendUp,
	}
	tests := []struct {
		name string
		sel  Selector
		want bool
	}{
		{name: "numeric within band", sel: Selector{Attr: AttrFollowers, Value: 500}, want: true},
		{name: "numeric outside band", sel: Selector{Attr: AttrFollowers, Value: 10000}, want: false},
		{name: "hashtag match", sel: Selector{Attr: AttrHashtag, Category: HashtagSocial}, want: true},
		{name: "hashtag mismatch", sel: Selector{Attr: AttrHashtag, Category: HashtagTech}, want: false},
		{name: "trend match", sel: Selector{Attr: AttrTrend, Trend: TrendUp}, want: true},
		{name: "trend mismatch", sel: Selector{Attr: AttrTrend, Trend: TrendDown}, want: false},
		{name: "random matches anyone", sel: Selector{Attr: AttrRandom}, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.sel.Matches(a, now, 0.35); got != tt.want {
				t.Fatalf("Matches = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestFormatSampleValue(t *testing.T) {
	tests := []struct {
		give float64
		want string
	}{
		{give: 10000, want: "10k"},
		{give: 500, want: "500"},
		{give: 0.25, want: "0.25"},
		{give: 0.1, want: "0.1"},
		{give: 1, want: "1"},
		{give: 0, want: "0"},
		{give: 1500, want: "1500"},
	}
	for _, tt := range tests {
		if got := FormatSampleValue(tt.give); got != tt.want {
			t.Errorf("FormatSampleValue(%v) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestSelectorString(t *testing.T) {
	tests := []struct {
		sel  Selector
		want string
	}{
		{sel: Selector{Attr: AttrFollowers, Value: 10000}, want: "followers count=10k"},
		{sel: Selector{Attr: AttrHashtag, Category: HashtagSocial}, want: "hashtag: social"},
		{sel: Selector{Attr: AttrTrend, Trend: TrendUp}, want: "trending up"},
		{sel: Selector{Attr: AttrRandom}, want: "random"},
	}
	for _, tt := range tests {
		if got := tt.sel.String(); got != tt.want {
			t.Errorf("Selector.String = %q, want %q", got, tt.want)
		}
	}
}

func TestScreenFindsMatchingAccounts(t *testing.T) {
	w := newTestWorld(t)
	now := simclock.Epoch
	rng := rand.New(rand.NewSource(1))
	q := ScreenQuery{
		Selector: Selector{Attr: AttrFollowers, Value: 1000},
		Count:    10,
	}
	got := w.Screen(q, now, rng)
	if len(got) == 0 {
		t.Fatal("Screen found no accounts near followers=1000")
	}
	for _, a := range got {
		v := float64(a.FollowersCount)
		if v < 650 || v > 1350 {
			t.Fatalf("account followers %v outside tolerance band", v)
		}
		if a.Suspended {
			t.Fatal("Screen returned a suspended account")
		}
	}
}

func TestScreenRespectsCount(t *testing.T) {
	w := newTestWorld(t)
	rng := rand.New(rand.NewSource(1))
	q := ScreenQuery{Selector: Selector{Attr: AttrRandom}, Count: 7}
	if got := w.Screen(q, simclock.Epoch, rng); len(got) != 7 {
		t.Fatalf("Screen returned %d accounts, want 7", len(got))
	}
	q.Count = 0
	if got := w.Screen(q, simclock.Epoch, rng); got != nil {
		t.Fatal("Screen with Count=0 should return nil")
	}
}

func TestScreenExcludes(t *testing.T) {
	w := newTestWorld(t)
	rng := rand.New(rand.NewSource(1))
	q := ScreenQuery{Selector: Selector{Attr: AttrRandom}, Count: 50}
	first := w.Screen(q, simclock.Epoch, rng)
	q.Exclude = &AccountSet{}
	for _, a := range first {
		q.Exclude.Add(a.ID)
	}
	second := w.Screen(q, simclock.Epoch, rng)
	for _, b := range second {
		if q.Exclude.Has(b.ID) {
			t.Fatalf("excluded account %d reselected", b.ID)
		}
	}
}

func TestScreenActiveOnly(t *testing.T) {
	w := newTestWorld(t)
	e := NewEngine(w)
	e.RunHours(3)
	now := e.Now()
	rng := rand.New(rand.NewSource(1))
	q := ScreenQuery{
		Selector:   Selector{Attr: AttrRandom},
		Count:      30,
		ActiveOnly: true,
	}
	got := w.Screen(q, now, rng)
	if len(got) == 0 {
		t.Fatal("no active accounts found after traffic")
	}
	for _, a := range got {
		if !a.Active(now, 24*time.Hour) {
			t.Fatalf("Screen(ActiveOnly) returned dormant account %d", a.ID)
		}
	}
}

func TestScreenSamplingIsSeedDependent(t *testing.T) {
	w := newTestWorld(t)
	q := ScreenQuery{Selector: Selector{Attr: AttrRandom}, Count: 20}
	a := w.Screen(q, simclock.Epoch, rand.New(rand.NewSource(1)))
	b := w.Screen(q, simclock.Epoch, rand.New(rand.NewSource(2)))
	diff := false
	for i := range a {
		if a[i].ID != b[i].ID {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different rng seeds produced identical samples")
	}
}
