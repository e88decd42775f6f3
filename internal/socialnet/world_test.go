package socialnet

import (
	"math"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/imagehash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/simclock"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NumAccounts = 2000
	cfg.OrganicTweetsPerHour = 400
	return cfg
}

func newTestWorld(t *testing.T) *World {
	t.Helper()
	w, err := NewWorld(testConfig())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	return w
}

func TestNewWorldValidatesConfig(t *testing.T) {
	bad := testConfig()
	bad.NumAccounts = 0
	if _, err := NewWorld(bad); err == nil {
		t.Fatal("NewWorld accepted invalid config")
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "negative spammer fraction", mutate: func(c *Config) { c.SpammerFraction = -0.1 }},
		{name: "spammer fraction one", mutate: func(c *Config) { c.SpammerFraction = 1 }},
		{name: "zero campaign size", mutate: func(c *Config) { c.AccountsPerCampaign = 0 }},
		{name: "negative organic", mutate: func(c *Config) { c.OrganicTweetsPerHour = -1 }},
		{name: "active prob", mutate: func(c *Config) { c.SpammerActiveProb = 1.5 }},
		{name: "targets", mutate: func(c *Config) { c.SpamTargetsPerHour = -2 }},
		{name: "suspension", mutate: func(c *Config) { c.SuspensionRatePerHour = 2 }},
		{name: "diverse", mutate: func(c *Config) { c.DiverseFraction = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate accepted invalid config")
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := FullScaleConfig().Validate(); err != nil {
		t.Fatalf("full-scale config invalid: %v", err)
	}
}

func TestWorldDeterministicForSeed(t *testing.T) {
	a, err := NewWorld(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWorld(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumAccounts() != b.NumAccounts() {
		t.Fatal("account counts differ for equal seeds")
	}
	for i, acctA := range a.accounts {
		acctB := b.accounts[i]
		if acctA.ScreenName != acctB.ScreenName || acctA.FollowersCount != acctB.FollowersCount {
			t.Fatalf("account %d differs between equal-seed worlds", i)
		}
	}
}

func TestWorldDiffersAcrossSeeds(t *testing.T) {
	cfgA := testConfig()
	cfgB := testConfig()
	cfgB.Seed = 999
	a, _ := NewWorld(cfgA)
	b, _ := NewWorld(cfgB)
	same := 0
	for i := range a.accounts {
		if a.accounts[i].ScreenName == b.accounts[i].ScreenName {
			same++
		}
	}
	if same == len(a.accounts) {
		t.Fatal("different seeds produced identical worlds")
	}
}

func TestPopulationComposition(t *testing.T) {
	w := newTestWorld(t)
	var spammers, seeds, normals int
	for _, a := range w.accounts {
		switch a.Kind {
		case KindSpammer:
			spammers++
		case KindSeed:
			seeds++
		default:
			normals++
		}
	}
	wantSpam := int(float64(w.cfg.NumAccounts) * w.cfg.SpammerFraction)
	if spammers != wantSpam {
		t.Fatalf("spammers = %d, want %d", spammers, wantSpam)
	}
	if seeds == 0 || normals == 0 {
		t.Fatalf("population missing kinds: seeds=%d normals=%d", seeds, normals)
	}
}

func TestSpammersBelongToCampaigns(t *testing.T) {
	w := newTestWorld(t)
	for _, a := range w.accounts {
		if a.Kind == KindSpammer && (a.CampaignID < 0 || a.CampaignID >= len(w.campaigns)) {
			t.Fatalf("spammer %d has invalid campaign %d", a.ID, a.CampaignID)
		}
		if a.Kind != KindSpammer && a.CampaignID != NoCampaign {
			t.Fatalf("non-spammer %d assigned to campaign %d", a.ID, a.CampaignID)
		}
	}
	for _, c := range w.campaigns {
		if len(c.MemberIDs) == 0 {
			t.Fatalf("campaign %d has no members", c.ID)
		}
	}
}

// Campaign members must share dHash-clusterable avatars and Σ-Seq
// name shapes — the artefacts the labeling pipeline detects.
func TestCampaignArtefactsCluster(t *testing.T) {
	w := newTestWorld(t)
	c := w.campaigns[0]
	if len(c.MemberIDs) < 2 {
		t.Skip("campaign too small")
	}
	first := w.Account(c.MemberIDs[0])
	base := imagehash.DHash(imagehash.NewSynthesizer().Synthesize(c.BaseImageSeed))
	seqs := make(map[string]int)
	within := 0
	for _, id := range c.MemberIDs {
		m := w.Account(id)
		if base.Distance(m.ProfileImageHash) <= imagehash.DefaultThreshold {
			within++
		}
		seqs[textutil.ClassSeqWithRunLengths(m.ScreenName)]++
	}
	if within < len(c.MemberIDs)*9/10 {
		t.Fatalf("only %d/%d members hash near campaign base", within, len(c.MemberIDs))
	}
	if len(seqs) > 3 {
		t.Fatalf("campaign screen names split into %d Σ-Seq groups (%v), first=%q",
			len(seqs), seqs, first.ScreenName)
	}
}

func TestAttributeCoverageOfTableIISampleValues(t *testing.T) {
	cfg := testConfig()
	cfg.NumAccounts = 8000
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := simclock.Epoch
	// For a representative subset of Table II sample values, the world
	// must contain accounts within a ±40% band.
	attrs := []struct {
		name  string
		value float64
		attr  func(*Account) float64
	}{
		{name: "followers 10k", value: 10000, attr: func(a *Account) float64 { return float64(a.FollowersCount) }},
		{name: "friends 10k", value: 10000, attr: func(a *Account) float64 { return float64(a.FriendsCount) }},
		{name: "lists 500", value: 500, attr: func(a *Account) float64 { return float64(a.ListedCount) }},
		{name: "favorites 200k", value: 200000, attr: func(a *Account) float64 { return float64(a.FavouritesCount) }},
		{name: "statuses 200k", value: 200000, attr: func(a *Account) float64 { return float64(a.StatusesCount) }},
		{name: "age 1000d", value: 1000, attr: func(a *Account) float64 { return a.AgeDays(now) }},
		{name: "lists/day 1", value: 1, attr: func(a *Account) float64 { return a.ListsPerDay(now) }},
	}
	for _, tt := range attrs {
		matches := 0
		for _, a := range w.accounts {
			v := tt.attr(a)
			if v >= tt.value*0.6 && v <= tt.value*1.4 {
				matches++
			}
		}
		if matches < 10 {
			t.Errorf("attribute %q: only %d accounts near sample value %v",
				tt.name, matches, tt.value)
		}
	}
}

func TestAttractionRankings(t *testing.T) {
	w := newTestWorld(t)
	now := simclock.Epoch

	// ListedCount stays 0 so the per-day list attribute does not vary
	// with the age mutations below.
	base := &Account{
		ID: 1, CreatedAt: now.Add(-500 * 24 * time.Hour),
		FriendsCount: 100, FollowersCount: 100,
		FavouritesCount: 100, StatusesCount: 200,
		HashtagCategory: HashtagNone, TrendAffinity: TrendNone,
	}
	clone := func(mutate func(*Account)) *Account {
		cp := *base
		mutate(&cp)
		return &cp
	}

	tests := []struct {
		name string
		hi   *Account
		lo   *Account
	}{
		{
			name: "more followers attract more",
			hi:   clone(func(a *Account) { a.FollowersCount = 10000 }),
			lo:   clone(func(a *Account) { a.FollowersCount = 10 }),
		},
		{
			name: "more lists attract more",
			hi:   clone(func(a *Account) { a.ListedCount = 500 }),
			lo:   clone(func(a *Account) { a.ListedCount = 5 }),
		},
		{
			name: "low friend/follower ratio attracts more",
			hi:   clone(func(a *Account) { a.FriendsCount = 100; a.FollowersCount = 1000 }),
			lo:   clone(func(a *Account) { a.FriendsCount = 1000; a.FollowersCount = 100 }),
		},
		{
			name: "social hashtag beats astrology",
			hi:   clone(func(a *Account) { a.HashtagCategory = HashtagSocial }),
			lo:   clone(func(a *Account) { a.HashtagCategory = HashtagAstrology }),
		},
		{
			name: "trending-up beats no trend",
			hi:   clone(func(a *Account) { a.TrendAffinity = TrendUp }),
			lo:   clone(func(a *Account) { a.TrendAffinity = TrendNone }),
		},
		{
			name: "age 1000 days beats age 30 days",
			hi:   clone(func(a *Account) { a.CreatedAt = now.Add(-1000 * 24 * time.Hour) }),
			lo:   clone(func(a *Account) { a.CreatedAt = now.Add(-30 * 24 * time.Hour) }),
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			hi := w.Attraction(tt.hi, now)
			lo := w.Attraction(tt.lo, now)
			if hi <= lo {
				t.Fatalf("attraction(hi)=%v <= attraction(lo)=%v", hi, lo)
			}
		})
	}
}

func TestAttractionSuspendedIsZero(t *testing.T) {
	w := newTestWorld(t)
	a := *w.accounts[0]
	a.Suspended = true
	if got := w.Attraction(&a, simclock.Epoch); got != 0 {
		t.Fatalf("suspended attraction = %v, want 0", got)
	}
}

// The top-PGE sample value of the paper (1 list joined per day) must beat
// every other single-attribute boost in the attraction model.
func TestListsPerDayDominatesAttraction(t *testing.T) {
	w := newTestWorld(t)
	now := simclock.Epoch
	age := 200.0
	hi := &Account{
		CreatedAt:   now.Add(-time.Duration(age*24) * time.Hour),
		ListedCount: int(age), // 1 list/day
	}
	others := []*Account{
		{CreatedAt: hi.CreatedAt, FollowersCount: 10000},
		{CreatedAt: hi.CreatedAt, FriendsCount: 10000},
		{CreatedAt: hi.CreatedAt, FavouritesCount: 200000},
		{CreatedAt: hi.CreatedAt, StatusesCount: 200000},
	}
	hiScore := w.Attraction(hi, now)
	for i, o := range others {
		if s := w.Attraction(o, now); s >= hiScore {
			t.Fatalf("attribute %d score %v >= lists/day score %v", i, s, hiScore)
		}
	}
}

func TestAccountDerivedAttributes(t *testing.T) {
	now := simclock.Epoch
	a := &Account{
		CreatedAt:       now.Add(-100 * 24 * time.Hour),
		FriendsCount:    50,
		FollowersCount:  200,
		ListedCount:     100,
		FavouritesCount: 300,
		StatusesCount:   1000,
	}
	if got := a.AgeDays(now); math.Abs(got-100) > 1e-9 {
		t.Fatalf("AgeDays = %v, want 100", got)
	}
	if got := a.FriendFollowerRatio(); got != 0.25 {
		t.Fatalf("ratio = %v, want 0.25", got)
	}
	if got := a.ListsPerDay(now); got != 1 {
		t.Fatalf("ListsPerDay = %v, want 1", got)
	}
	if got := a.FavouritesPerDay(now); got != 3 {
		t.Fatalf("FavouritesPerDay = %v, want 3", got)
	}
	if got := a.StatusesPerDay(now); got != 10 {
		t.Fatalf("StatusesPerDay = %v, want 10", got)
	}
}

func TestAccountZeroFollowersRatioFinite(t *testing.T) {
	a := &Account{FriendsCount: 10}
	if got := a.FriendFollowerRatio(); math.IsInf(got, 0) || got != 10 {
		t.Fatalf("ratio with zero followers = %v, want 10", got)
	}
}

func TestAccountAgeNeverNegative(t *testing.T) {
	now := simclock.Epoch
	a := &Account{CreatedAt: now.Add(24 * time.Hour)}
	if got := a.AgeDays(now); got != 0 {
		t.Fatalf("future-created account age = %v, want 0", got)
	}
}

// TestWorldIDsDense: a world numbers its accounts 1..N in the order they
// join — the generated population, then spawned and added accounts — and
// Account resolves exactly those ids. AddAccount's id, World.byID and the
// twitterapi server's exclusion bound all rest on it.
func TestWorldIDsDense(t *testing.T) {
	w := newTestWorld(t)
	n := AccountID(w.NumAccounts())
	seen := make([]bool, n+1)
	for i, a := range w.accounts {
		if a.ID < 1 || a.ID > n || seen[a.ID] {
			t.Fatalf("generated account %d has id %d: want each of 1..%d once", i, a.ID, n)
		}
		seen[a.ID] = true
	}
	if w.accounts[0].ID == 1 && w.accounts[n-1].ID == n {
		t.Fatal("generated accounts are in id order; the shuffle did not run")
	}
	joined := []*Account{w.SpawnSpammer(simclock.Epoch)}
	added := &Account{ScreenName: "late_joiner"}
	w.AddAccount(added)
	joined = append(joined, added, w.SpawnSpammer(simclock.Epoch))
	for i, a := range joined {
		if want := n + 1 + AccountID(i); a.ID != want || w.accounts[want-1] != a {
			t.Fatalf("account %d to join has id %d (at position %d: %v), want id %d, last in order",
				i, a.ID, want-1, w.accounts[want-1] == a, want)
		}
	}
	for id := AccountID(1); id <= n+3; id++ {
		if a := w.Account(id); a == nil || a.ID != id {
			t.Fatalf("Account(%d) = %v", id, a)
		}
	}
	for _, id := range []AccountID{0, -1, -n, math.MinInt64, n + 4, 1 << 40, 1 << 62, math.MaxInt64} {
		if a := w.Account(id); a != nil {
			t.Fatalf("Account(%d) = account %d, want nil", id, a.ID)
		}
	}
}

func TestByScreenName(t *testing.T) {
	w := newTestWorld(t)
	want := w.accounts[10]
	if got := w.ByScreenName(want.ScreenName); got == nil {
		t.Fatal("ByScreenName did not find existing account")
	}
	if got := w.ByScreenName("no_such_account_xyz"); got != nil {
		t.Fatal("ByScreenName found a ghost")
	}
}

func TestTweetClone(t *testing.T) {
	tw := &Tweet{Mentions: []AccountID{1, 2}, Hashtags: []string{"x"}, URLs: []string{"u"}}
	cp := tw.Clone()
	cp.Mentions[0] = 99
	cp.Hashtags[0] = "changed"
	if tw.Mentions[0] != 1 || tw.Hashtags[0] != "x" {
		t.Fatal("Clone shares slices with original")
	}
}

func TestKindStrings(t *testing.T) {
	if KindNormal.String() != "normal" || KindSpammer.String() != "spammer" ||
		KindSeed.String() != "seed" || AccountKind(0).String() != "unknown" {
		t.Fatal("AccountKind.String wrong")
	}
	if KindTweet.String() != "tweet" || KindRetweet.String() != "retweet" ||
		KindQuote.String() != "quote" || TweetKind(0).String() != "unknown" {
		t.Fatal("TweetKind.String wrong")
	}
	if SourceWeb.String() != "web" || SourceMobile.String() != "mobile" ||
		SourceThirdParty.String() != "third-party" || SourceOther.String() != "other" {
		t.Fatal("Source.String wrong")
	}
}

// BenchmarkNewWorld generates a bench-scale world: 20,000 accounts under
// DefaultConfig at seed 1, the world every bench/ workload row builds.
func BenchmarkNewWorld(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.NumAccounts = 20000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewWorld(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
