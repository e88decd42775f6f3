package socialnet

import (
	"runtime"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/simclock"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	w, err := NewWorld(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(w)
}

func TestEngineGeneratesTraffic(t *testing.T) {
	e := newTestEngine(t)
	var tweets []*Tweet
	cancel := e.Subscribe(func(tw *Tweet) { tweets = append(tweets, tw) })
	defer cancel()

	e.RunHours(3)

	if len(tweets) == 0 {
		t.Fatal("no tweets generated")
	}
	stats := e.Stats()
	if stats.Hours != 3 {
		t.Fatalf("Hours = %d, want 3", stats.Hours)
	}
	if stats.TweetsTotal != int64(len(tweets)) {
		t.Fatalf("stats.TweetsTotal = %d, subscribers saw %d", stats.TweetsTotal, len(tweets))
	}
	if stats.SpamTotal == 0 {
		t.Fatal("no spam generated")
	}
	if stats.SpamTotal >= stats.TweetsTotal {
		t.Fatal("spam dominates the firehose; organic traffic missing")
	}
}

func TestEngineChronologicalEmission(t *testing.T) {
	e := newTestEngine(t)
	var last time.Time
	violations := 0
	cancel := e.Subscribe(func(tw *Tweet) {
		if tw.CreatedAt.Before(last) {
			violations++
		}
		last = tw.CreatedAt
	})
	defer cancel()
	e.RunHours(2)
	if violations > 0 {
		t.Fatalf("%d tweets emitted out of chronological order", violations)
	}
}

func TestEngineDeterministicForSeed(t *testing.T) {
	run := func() []TweetID {
		w, err := NewWorld(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(w)
		var ids []TweetID
		e.Subscribe(func(tw *Tweet) { ids = append(ids, tw.ID) })
		e.RunHours(2)
		return ids
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in volume: %d vs %d", len(a), len(b))
	}
}

func TestEngineUnsubscribeStopsDelivery(t *testing.T) {
	e := newTestEngine(t)
	n := 0
	cancel := e.Subscribe(func(*Tweet) { n++ })
	cancel()
	e.RunHours(1)
	if n != 0 {
		t.Fatalf("cancelled subscriber received %d tweets", n)
	}
}

func TestEngineHourHooksRunBeforeTraffic(t *testing.T) {
	e := newTestEngine(t)
	var hookHours []int
	var tweetsAtHook []int64
	e.OnHourStart(func(hour int, now time.Time) {
		hookHours = append(hookHours, hour)
		tweetsAtHook = append(tweetsAtHook, e.Stats().TweetsTotal)
	})
	e.RunHours(2)
	if len(hookHours) != 2 || hookHours[0] != 0 || hookHours[1] != 1 {
		t.Fatalf("hook hours = %v, want [0 1]", hookHours)
	}
	if tweetsAtHook[0] != 0 {
		t.Fatal("hour-0 hook ran after traffic started")
	}
}

func TestEngineClockAdvancesOneHourPerRun(t *testing.T) {
	e := newTestEngine(t)
	start := e.Now()
	e.RunHours(5)
	if got := e.Now().Sub(start); got != 5*time.Hour {
		t.Fatalf("clock advanced %v, want 5h", got)
	}
}

func TestSpamMentionsTargetAttractiveAccounts(t *testing.T) {
	e := newTestEngine(t)
	now := simclock.Epoch
	spamVictims := make(map[AccountID]int)
	e.Subscribe(func(tw *Tweet) {
		if tw.Spam {
			for _, m := range tw.Mentions {
				spamVictims[m]++
			}
		}
	})
	e.RunHours(6)
	if len(spamVictims) == 0 {
		t.Fatal("no spam mentions generated")
	}
	// Spam-mention victims should have above-average attraction.
	var victimSum float64
	for id := range spamVictims {
		victimSum += e.World().Attraction(e.World().Account(id), now)
	}
	victimAvg := victimSum / float64(len(spamVictims))
	var popSum float64
	for _, a := range e.World().Accounts() {
		popSum += e.World().Attraction(a, now)
	}
	popAvg := popSum / float64(e.World().NumAccounts())
	if victimAvg <= popAvg {
		t.Fatalf("victim avg attraction %v <= population avg %v", victimAvg, popAvg)
	}
}

func TestSpamReactionDelaysShorterThanOrganic(t *testing.T) {
	e := newTestEngine(t)
	lastPost := make(map[AccountID]time.Time)
	var spamDelays, organicDelays []time.Duration
	e.Subscribe(func(tw *Tweet) {
		for _, m := range tw.Mentions {
			if post, ok := lastPost[m]; ok {
				d := tw.CreatedAt.Sub(post)
				if d >= 0 && d < time.Hour {
					if tw.Spam {
						spamDelays = append(spamDelays, d)
					} else if tw.Kind == KindTweet {
						organicDelays = append(organicDelays, d)
					}
				}
			}
		}
		lastPost[tw.AuthorID] = tw.CreatedAt
	})
	e.RunHours(8)
	if len(spamDelays) < 20 || len(organicDelays) < 20 {
		t.Fatalf("not enough delay samples: spam=%d organic=%d",
			len(spamDelays), len(organicDelays))
	}
	med := func(ds []time.Duration) time.Duration {
		// Selection via simple copy+sort is fine at test sizes.
		cp := append([]time.Duration(nil), ds...)
		for i := 1; i < len(cp); i++ {
			for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
				cp[j], cp[j-1] = cp[j-1], cp[j]
			}
		}
		return cp[len(cp)/2]
	}
	if med(spamDelays) >= med(organicDelays) {
		t.Fatalf("median spam delay %v >= median organic delay %v",
			med(spamDelays), med(organicDelays))
	}
}

func TestSuspensionProcess(t *testing.T) {
	cfg := testConfig()
	cfg.SuspensionRatePerHour = 0.05
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w)
	e.RunHours(20)

	suspendedSpammers := 0
	suspendedBenign := 0
	totalSpammers := 0
	for _, a := range w.Accounts() {
		if a.Kind == KindSpammer {
			totalSpammers++
			if a.Suspended {
				suspendedSpammers++
			}
		} else if a.Suspended {
			suspendedBenign++
		}
	}
	if suspendedSpammers == 0 {
		t.Fatal("no spammers suspended after 20h at 5%/h")
	}
	if suspendedSpammers == totalSpammers {
		t.Fatal("all spammers suspended; oracle would be perfect, must stay noisy")
	}
	if suspendedBenign > totalSpammers {
		t.Fatalf("implausible false suspensions: %d", suspendedBenign)
	}
}

func TestSuspendedSpammersStopTweeting(t *testing.T) {
	cfg := testConfig()
	cfg.SuspensionRatePerHour = 1.0 // suspend everyone immediately
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w)
	spamSeen := 0
	e.Subscribe(func(tw *Tweet) {
		if tw.Spam {
			spamSeen++
		}
	})
	e.RunHours(3)
	if spamSeen != 0 {
		t.Fatalf("suspended spammers still produced %d spam tweets", spamSeen)
	}
}

func TestActiveStatusTracksRecentActivity(t *testing.T) {
	e := newTestEngine(t)
	e.RunHours(4)
	now := e.Now()
	w := e.World()
	active := 0
	for _, a := range w.Accounts() {
		if a.Active(now, 24*time.Hour) {
			active++
			if a.LastPostAt().IsZero() {
				t.Fatal("active account never posted")
			}
		}
	}
	if active == 0 {
		t.Fatal("no accounts active after 4 hours of traffic")
	}
	if active == w.NumAccounts() {
		t.Fatal("every account active; dormant accounts must exist")
	}
}

// Fig. 2 shape: the overwhelming majority of spammers send one spam per
// victim, with a short geometric tail.
func TestSpamsPerTargetDistribution(t *testing.T) {
	e := newTestEngine(t)
	const draws = 20000
	ones, big := 0, 0
	for i := 0; i < draws; i++ {
		n := e.spamsPerTarget()
		if n == 1 {
			ones++
		}
		if n > 10 {
			big++
		}
	}
	if frac := float64(ones) / draws; frac < 0.90 {
		t.Fatalf("single-spam fraction = %v, want >= 0.90", frac)
	}
	if frac := float64(big) / draws; frac > 0.005 {
		t.Fatalf(">10-spam fraction = %v, want < 0.005", frac)
	}
}

func TestPoisson(t *testing.T) {
	e := newTestEngine(t)
	if e.poisson(0) != 0 {
		t.Fatal("poisson(0) != 0")
	}
	const draws = 5000
	sum := 0
	for i := 0; i < draws; i++ {
		sum += e.poisson(3)
	}
	mean := float64(sum) / draws
	if mean < 2.7 || mean > 3.3 {
		t.Fatalf("poisson(3) sample mean = %v", mean)
	}
}

func TestStatusesCountGrowsWithPosts(t *testing.T) {
	e := newTestEngine(t)
	before := make(map[AccountID]int)
	for _, a := range e.World().Accounts() {
		before[a.ID] = a.StatusesCount
	}
	posts := make(map[AccountID]int)
	e.Subscribe(func(tw *Tweet) { posts[tw.AuthorID]++ })
	e.RunHours(2)
	for _, a := range e.World().Accounts() {
		initial, existed := before[a.ID]
		if !existed {
			continue // churn-spawned account with its own initial count
		}
		want := initial + posts[a.ID]
		if a.StatusesCount != want {
			t.Fatalf("account %d statuses = %d, want %d", a.ID, a.StatusesCount, want)
		}
	}
}

func TestSpamTweetsCarryCampaignArtifacts(t *testing.T) {
	e := newTestEngine(t)
	checked, withURL := 0, 0
	e.Subscribe(func(tw *Tweet) {
		if !tw.Spam || len(tw.Mentions) == 0 {
			return
		}
		checked++
		if len(tw.URLs) > 0 {
			withURL++
		}
		if tw.CampaignID == NoCampaign {
			t.Errorf("spam mention %d has no campaign", tw.ID)
		}
	})
	e.RunHours(2)
	if checked == 0 {
		t.Fatal("no spam mentions observed")
	}
	// Campaign spam always carries a URL; lone wolves only sometimes.
	if withURL*2 < checked {
		t.Fatalf("only %d/%d spam mentions carry URLs", withURL, checked)
	}
}

func TestTrendSampleRespectsState(t *testing.T) {
	w := newTestWorld(t)
	ts := w.Trends()
	topic := ts.Sample(TrendUp)
	if topic == nil {
		t.Fatal("Sample returned nil")
	}
}

func TestTrendVolumesStayBounded(t *testing.T) {
	w := newTestWorld(t)
	ts := w.Trends()
	for i := 0; i < 500; i++ {
		ts.Step()
	}
	for _, topic := range ts.Topics() {
		if topic.Volume < 0.05 || topic.Volume > 50 {
			t.Fatalf("topic %q volume %v out of bounds", topic.Name, topic.Volume)
		}
	}
}

// TestEngineAllocsPerTweet gates what the engine allocates per emitted
// tweet once its queue, samplers and text buffer have grown: the tweet, its
// text and its slices. A scheduled event is a value in the queue, so
// nothing is allocated per event. The small test world measures 3.580
// (seed 1, hours 2–6, go1.24, with or without -race; the closure-and-
// *Event queue it replaced measured 6.06). The bound is 0.04 above that:
// a closure that escapes at the post, reply, spam-reaction or stale-
// mention Push site adds 1.18, 0.33, 0.055 and 0.21 here and fails it;
// the 17 s follow-up site fires too rarely in this world to show.
func TestEngineAllocsPerTweet(t *testing.T) {
	e := newTestEngine(t)
	tweets := 0
	e.Subscribe(func(*Tweet) { tweets++ })
	e.RunHours(2)
	tweets = 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e.RunHours(4)
	runtime.ReadMemStats(&m1)
	if tweets == 0 {
		t.Fatal("no tweets in the measured hours")
	}
	got := float64(m1.Mallocs-m0.Mallocs) / float64(tweets)
	t.Logf("%.3f allocs/tweet over %d tweets", got, tweets)
	const bound = 3.62
	if got > bound {
		t.Fatalf("engine allocates %.3f per tweet, want ≤ %.2f", got, bound)
	}
}
