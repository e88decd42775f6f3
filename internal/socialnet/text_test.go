package socialnet

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestTextGenMatchesFmtReference drives textGen and the fmt-based
// generator it replaced from equal seeds through every generator, 10⁵
// rounds at each of two seeds, and requires the same bytes from each call
// and the same next draw after it — so the rng is left in the same state
// and every later draw of a world or an engine is unchanged.
func TestTextGenMatchesFmtReference(t *testing.T) {
	rounds := 100000
	if testing.Short() || raceEnabled {
		rounds = 5000
	}
	var spamTemplates []string
	for _, kind := range _spamTextKinds {
		spamTemplates = append(spamTemplates, _spamTemplates[kind]...)
	}
	for _, seed := range []int64{1, 2} {
		g := newTextGen(rand.New(rand.NewSource(seed)))
		ref := &fmtTextGen{rng: rand.New(rand.NewSource(seed))}
		// sel chooses the inputs the callers would pass, off both rngs.
		sel := rand.New(rand.NewSource(seed + 100))
		name := "alex_1"
		check := func(what, got, want string) {
			t.Helper()
			if got != want {
				t.Fatalf("seed %d, %s: got %q, want %q", seed, what, got, want)
			}
			if a, b := g.rng.Int63(), ref.rng.Int63(); a != b {
				t.Fatalf("seed %d, %s: next draw %d, reference %d", seed, what, a, b)
			}
		}
		for i := 0; i < rounds; i++ {
			id := AccountID(sel.Int63n(1 << 40))
			name = g.normalScreenName(id)
			check("normalScreenName", name, ref.normalScreenName(id))
			for shape := 0; shape < numNameShapes; shape++ {
				check("campaignName", campaignName(shape, g), ref.campaignName(shape))
			}
			check("seedScreenName", g.seedScreenName(), ref.seedScreenName())
			check("displayName", g.displayName(), ref.displayName())
			check("benignDescription", g.benignDescription(), ref.benignDescription())
			url := maliciousURL(sel)
			tpl := _spamDescTemplates[sel.Intn(len(_spamDescTemplates))]
			check("campaignDescription", g.campaignDescription(tpl, url), ref.campaignDescription(tpl, url))
			tweet := g.benignTweet()
			check("benignTweet", tweet, ref.benignTweet())
			check("benignReply", g.benignReply(), ref.benignReply())
			g.mention(name)
			check("mention+benignReply", g.benignReply(), "@"+name+" "+ref.benignReply())
			check("benignQuote", g.benignQuote(tweet), ref.benignReply()+" // "+tweet)
			tpl = spamTemplates[sel.Intn(len(spamTemplates))]
			check("campaignTweet", g.campaignTweet(tpl, url), ref.campaignTweet(tpl, url))
			g.mention(name)
			check("mention+campaignTweet", g.campaignTweet(tpl, url), "@"+name+" "+ref.campaignTweet(tpl, url))
			tpl = _loneWolfTemplates[sel.Intn(len(_loneWolfTemplates))]
			withURL := sel.Intn(2) == 0
			g.mention(name)
			check("mention+loneWolfTweet", g.loneWolfTweet(tpl, url, withURL),
				"@"+name+" "+ref.loneWolfTweet(tpl, url, withURL))
		}
	}
}

// TestTemplatesHoldOnlyStringVerbs guards appendf's premise: every
// template's only verbs are %s, as many as its callers pass.
func TestTemplatesHoldOnlyStringVerbs(t *testing.T) {
	check := func(list []string, verbs int) {
		for _, tpl := range list {
			if strings.Count(tpl, "%s") != verbs || strings.Count(tpl, "%") != verbs {
				t.Errorf("template %q: want exactly %d %%s verbs and no other %%", tpl, verbs)
			}
		}
	}
	check(_benignTemplates, 2)
	check(_benignReplyTemplates, 1)
	check(_benignDescTemplates, 2)
	check(_loneWolfTemplates, 2)
	check(_spamDescTemplates, 1)
	for _, kind := range _spamTextKinds {
		check(_spamTemplates[kind], 1)
	}
	for _, list := range [][]string{_firstNames, _lastNames} {
		for _, w := range list {
			if w == "" || w[0] < 'a' || w[0] > 'z' {
				t.Errorf("name %q does not start with a lower-case ASCII letter", w)
			}
		}
	}
}

// TestTextGenAllocs pins every text generator at one allocation per text:
// the returned string.
func TestTextGenAllocs(t *testing.T) {
	g := newTextGen(rand.New(rand.NewSource(1)))
	g.buf = make([]byte, 0, 1024) // past any text's length, so it never grows
	const url = "http://spam-click.example/00ff00"
	for _, tt := range []struct {
		name string
		fn   func() string
	}{
		{"normalScreenName", func() string { return g.normalScreenName(42) }},
		{"campaignName", func() string { return campaignName(g.rng.Intn(numNameShapes), g) }},
		{"seedScreenName", g.seedScreenName},
		{"displayName", g.displayName},
		{"benignDescription", g.benignDescription},
		{"campaignDescription", func() string { return g.campaignDescription(_spamDescTemplates[0], url) }},
		{"benignTweet", g.benignTweet},
		{"benignReply", g.benignReply},
		{"mention+benignReply", func() string { g.mention("alex_smith"); return g.benignReply() }},
		{"benignQuote", func() string { return g.benignQuote("just had the best coffee (dog cat 42)") }},
		{"campaignTweet", func() string { return g.campaignTweet(_spamTemplates[spamMoney][0], url) }},
		{"loneWolfTweet", func() string { return g.loneWolfTweet(_loneWolfTemplates[0], url, true) }},
	} {
		if got := testing.AllocsPerRun(200, func() { _ = tt.fn() }); got != 1 {
			t.Errorf("%s: %v allocations per text, want 1", tt.name, got)
		}
	}
}

// TestTrendSampleMatchesPool holds Sample equal to the slice-building
// version it replaced, draw for draw, across drifting states.
func TestTrendSampleMatchesPool(t *testing.T) {
	ts := NewTrendSet(rand.New(rand.NewSource(3)))
	ref := NewTrendSet(rand.New(rand.NewSource(3)))
	for step := 0; step < 200; step++ {
		for _, state := range append(TrendStates, TrendState(0)) {
			if got, want := ts.Sample(state), sampleWithPool(ref, state); got.Name != want.Name {
				t.Fatalf("step %d, %v: Sample = %s, reference %s", step, state, got.Name, want.Name)
			}
		}
		ts.Step()
		ref.Step()
	}
}

func TestTrendSampleAllocs(t *testing.T) {
	ts := NewTrendSet(rand.New(rand.NewSource(1)))
	for _, state := range TrendStates {
		if got := testing.AllocsPerRun(100, func() { ts.Sample(state) }); got != 0 {
			t.Errorf("Sample(%v): %v allocations, want 0", state, got)
		}
	}
}

// TestAttractionCacheMatchesFormula runs 24 hours with spammer churn and
// an added honeypot whose counts move one by one mid-run. At every hour
// start it holds every account's cached Attraction, and the victim
// sampler's prefix sums, equal to the uncached formula bit for bit.
func TestAttractionCacheMatchesFormula(t *testing.T) {
	w := newTestWorld(t)
	e := NewEngine(w)
	hp := &Account{
		ScreenName: "pseudo_honeypot", FriendsCount: 120, FollowersCount: 800,
		ListedCount: 3, FavouritesCount: 50, StatusesCount: 400,
		CreatedAt: w.start.Add(-900 * 24 * time.Hour), HashtagCategory: HashtagSocial,
		TrendAffinity: TrendUp, TweetsPerHour: 0.5,
	}
	w.AddAccount(hp)
	before := w.NumAccounts()
	e.OnHourStart(func(hour int, now time.Time) {
		switch hour { // one count at a time, so each is seen on its own
		case 8:
			hp.FollowersCount += 250
		case 12:
			hp.FriendsCount += 40
		case 16:
			hp.ListedCount++
		case 20:
			hp.FavouritesCount += 7
		}
		for _, a := range w.accounts {
			if got, want := w.Attraction(a, now), attractionUncached(a, now); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("hour %d, account %d: Attraction %v, uncached %v", hour, a.ID, got, want)
			}
		}
		e.rebuildVictimSampler(now)
		cum, j := 0.0, 0
		for _, a := range w.accounts {
			score := attractionUncached(a, now)
			if score <= 0 {
				continue
			}
			cum += score
			if e.victims[j] != a || math.Float64bits(e.victimCum[j]) != math.Float64bits(cum) {
				t.Fatalf("hour %d: sampler entry %d is (%d, %v), want (%d, %v)", hour, j, e.victims[j].ID, e.victimCum[j], a.ID, cum)
			}
			j++
		}
		if j != len(e.victims) {
			t.Fatalf("hour %d: sampler has %d entries, want %d", hour, len(e.victims), j)
		}
	})
	e.RunHours(24)
	if w.NumAccounts() == before {
		t.Fatal("no spammer churned in; the run does not exercise fresh accounts")
	}
}

// TestRebuildVictimSamplerAllocs pins the hourly sampler rebuild at zero
// allocations once its slices have grown.
func TestRebuildVictimSamplerAllocs(t *testing.T) {
	e := newTestEngine(t)
	e.RunHours(2)
	now := e.Now()
	if got := testing.AllocsPerRun(10, func() { e.rebuildVictimSampler(now) }); got != 0 {
		t.Fatalf("rebuildVictimSampler: %v allocations, want 0", got)
	}
}

// BenchmarkEngineHour simulates one hour of the bench-scale firehose per
// op (20,000 accounts, 4,000 organic tweets/h, seed 1, one counting
// subscriber), continuing the same run across ops, and reports the cost
// per emitted tweet.
func BenchmarkEngineHour(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.NumAccounts = 20000
	cfg.OrganicTweetsPerHour = 4000
	w, err := NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(w)
	tweets := 0
	e.Subscribe(func(*Tweet) { tweets++ })
	e.RunHours(1) // warm the sampler slices and the text buffer
	tweets = 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunHours(1)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tweets), "ns/tweet")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(tweets), "allocs/tweet")
}
