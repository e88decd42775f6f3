package socialnet

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/simclock"
)

// Stats aggregates engine counters.
type Stats struct {
	Hours          int
	TweetsTotal    int64
	SpamTotal      int64
	MentionTweets  int64
	Suspensions    int64
	UniqueSpammers int
}

// Engine drives traffic through a World hour by hour on a simulated clock.
// Subscribers receive every generated tweet in chronological order — the
// in-process equivalent of the Twitter firehose that the streaming API
// filters.
//
// Engine is not safe for concurrent use; the twitterapi server wraps it
// with its own synchronization.
type Engine struct {
	world *World
	clock *simclock.Simulated
	queue *simclock.Queue
	rng   *rand.Rand
	gen   *textGen

	subs    map[int]func(*Tweet)
	nextSub int

	hourHooks []func(hour int, now time.Time)

	// watches maps a victim to the spam reactions pending on their next
	// post this hour.
	watches map[AccountID][]*spamWatch

	// victimIDs/victimCum implement weighted victim sampling by prefix
	// sums of attraction scores; rebuilt hourly.
	victimIDs []AccountID
	victimCum []float64

	// recentTweets is a ring of recently emitted benign tweets available
	// for retweeting/quoting.
	recentTweets []*Tweet
	recentNext   int

	// upPosters is a ring of accounts recently posting on trending-up
	// topics: spammers search rising-topic streams for victims, which is
	// what makes trending-up the hottest trending attribute (paper
	// Fig. 5).
	upPosters     []AccountID
	upPostersNext int

	tweetSeq    TweetID
	hour        int
	stats       Stats
	spammerSeen map[AccountID]struct{}
	// retired counts spam accounts whose budget ran out this hour;
	// churn replaces them at the next hour start.
	retired int
}

// spamWatch is one pending spam reaction from a spammer to a victim.
type spamWatch struct {
	spammer *Account
	count   int
	fired   bool
}

// NewEngine creates an engine over w starting at the world's start time.
func NewEngine(w *World) *Engine {
	return &Engine{
		world:        w,
		clock:        simclock.NewSimulated(w.start),
		queue:        simclock.NewQueue(),
		rng:          rand.New(rand.NewSource(w.cfg.Seed + 2)),
		gen:          newTextGen(rand.New(rand.NewSource(w.cfg.Seed + 3))),
		subs:         make(map[int]func(*Tweet)),
		watches:      make(map[AccountID][]*spamWatch),
		recentTweets: make([]*Tweet, 64),
		upPosters:    make([]AccountID, 256),
		spammerSeen:  make(map[AccountID]struct{}),
	}
}

// World returns the engine's world.
func (e *Engine) World() *World { return e.world }

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.clock.Now() }

// Hour returns the number of fully simulated hours.
func (e *Engine) Hour() int { return e.hour }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Hours = e.hour
	s.UniqueSpammers = len(e.spammerSeen)
	return s
}

// Subscribe registers fn to receive every generated tweet, in order.
// Received tweets are shared and must not be mutated. The returned cancel
// function removes the subscription.
func (e *Engine) Subscribe(fn func(*Tweet)) (cancel func()) {
	id := e.nextSub
	e.nextSub++
	e.subs[id] = fn
	return func() { delete(e.subs, id) }
}

// OnHourStart registers fn to run at the start of every simulated hour,
// before that hour's traffic is generated. Monitors use this for node
// rotation.
func (e *Engine) OnHourStart(fn func(hour int, now time.Time)) {
	e.hourHooks = append(e.hourHooks, fn)
}

// RunHours simulates n hours of traffic.
func (e *Engine) RunHours(n int) {
	for i := 0; i < n; i++ {
		e.runHour()
	}
}

func (e *Engine) runHour() {
	now := e.clock.Now()
	hourEnd := now.Add(time.Hour)

	for _, hook := range e.hourHooks {
		hook(e.hour, now)
	}

	e.world.trends.Step()
	e.decayActivity()
	e.suspend(now)
	e.churn(now)
	e.world.profilesChanged() // mention counters and suspensions moved
	e.rebuildVictimSampler(now)
	e.scheduleOrganic(now)
	e.scheduleSpam(now, hourEnd)

	e.queue.RunUntil(e.clock, hourEnd)

	// Unconsumed watches expire with the hour.
	e.watches = make(map[AccountID][]*spamWatch)
	e.hour++
}

// decayActivity halves every account's recent-mention counter.
func (e *Engine) decayActivity() {
	for _, a := range e.world.accounts {
		a.recentMentions /= 2
	}
}

// suspend runs the platform's hourly suspension process: a fraction of
// spammers plus a trickle of false suspensions.
func (e *Engine) suspend(now time.Time) {
	cfg := e.world.cfg
	for _, a := range e.world.accounts {
		if a.Suspended {
			continue
		}
		var p float64
		if a.Kind == KindSpammer {
			p = cfg.SuspensionRatePerHour
		} else {
			p = cfg.FalseSuspensionRatePerHour
		}
		if p > 0 && e.rng.Float64() < p {
			a.Suspended = true
			a.SuspendedAt = now
			e.stats.Suspensions++
		}
	}
}

// churn replaces spam accounts burned last hour with fresh registrations,
// keeping campaign capacity steady (paper-era campaigns continuously
// registered replacements for suspended/burned accounts).
func (e *Engine) churn(now time.Time) {
	if !e.world.cfg.SpammerChurn {
		e.retired = 0
		return
	}
	for i := 0; i < e.retired; i++ {
		e.world.SpawnSpammer(now)
	}
	e.retired = 0
}

// spendSpamBudget consumes one spam message from the account's budget and
// reports whether the message may be sent. Hitting zero retires the
// account.
func (e *Engine) spendSpamBudget(a *Account) bool {
	if a.spamBudget <= 0 {
		return false
	}
	a.spamBudget--
	if a.spamBudget == 0 {
		// Burned: the account is abandoned and goes dark (it stops
		// posting, loses Active status, and drops out of both the
		// screener's and the spammers' consideration).
		a.TweetsPerHour = 0.02
		e.retired++
	}
	return true
}

// rebuildVictimSampler recomputes the attraction prefix sums used to draw
// spam victims.
func (e *Engine) rebuildVictimSampler(now time.Time) {
	e.victimIDs = e.victimIDs[:0]
	e.victimCum = e.victimCum[:0]
	cum := 0.0
	for _, a := range e.world.accounts {
		score := e.world.Attraction(a, now)
		if score <= 0 {
			continue
		}
		cum += score
		e.victimIDs = append(e.victimIDs, a.ID)
		e.victimCum = append(e.victimCum, cum)
	}
}

// sampleVictim draws an account weighted by attraction, or nil when the
// sampler is empty. Spammers locate victims by searching recent tweets, so
// sampling retries until it finds an account that posted within the last
// couple of hours (when any exist); the final attempt is unconditional so a
// cold-started world still produces traffic.
func (e *Engine) sampleVictim() *Account {
	if len(e.victimCum) == 0 {
		return nil
	}
	const attempts = 6
	now := e.clock.Now()
	var a *Account
	for try := 0; try < attempts; try++ {
		total := e.victimCum[len(e.victimCum)-1]
		r := e.rng.Float64() * total
		i := sort.SearchFloat64s(e.victimCum, r)
		if i >= len(e.victimIDs) {
			i = len(e.victimIDs) - 1
		}
		a = e.world.byID[e.victimIDs[i]]
		if !a.lastPostAt.IsZero() && now.Sub(a.lastPostAt) <= 24*time.Hour {
			return a
		}
	}
	return a
}

// scheduleOrganic queues the hour's organic posts. Authors are sampled
// proportionally to their posting rate; replies hang off each post with
// human reaction delays.
func (e *Engine) scheduleOrganic(hourStart time.Time) {
	n := e.world.cfg.OrganicTweetsPerHour
	if n == 0 {
		return
	}
	// Author sampler over posting rates (excludes suspended accounts).
	ids := make([]AccountID, 0, len(e.world.accounts))
	cums := make([]float64, 0, len(e.world.accounts))
	cum := 0.0
	for _, a := range e.world.accounts {
		if a.Suspended {
			continue
		}
		cum += a.TweetsPerHour
		ids = append(ids, a.ID)
		cums = append(cums, cum)
	}
	if len(ids) == 0 {
		return
	}
	for i := 0; i < n; i++ {
		r := e.rng.Float64() * cum
		j := sort.SearchFloat64s(cums, r)
		if j >= len(ids) {
			j = len(ids) - 1
		}
		author := e.world.byID[ids[j]]
		at := hourStart.Add(time.Duration(e.rng.Float64() * float64(time.Hour)))
		e.queue.Push(at, func(now time.Time) {
			e.fireOrganicPost(author, now)
		})
	}
}

// fireOrganicPost emits one organic post (tweet/retweet/quote) and
// schedules its replies and any pending spam reactions on the author.
func (e *Engine) fireOrganicPost(author *Account, now time.Time) {
	if author.Suspended {
		return
	}
	t := e.composeOrganic(author, now)
	e.emit(t)

	// Replies arrive with lognormal human delays; repliers mention the
	// author (the paper's Category (2) traffic).
	replies := e.poisson(repliesPerPost(author))
	for i := 0; i < replies; i++ {
		delay := time.Duration(logNormal(e.rng, math.Log(1500), 1.0)) * time.Second
		e.queue.Push(now.Add(delay), func(rnow time.Time) {
			e.fireReply(author, rnow)
		})
	}

	// Spammers watching this victim react fast (Category (3)).
	if watches := e.watches[author.ID]; len(watches) > 0 {
		for _, wch := range watches {
			if wch.fired {
				continue
			}
			wch.fired = true
			e.scheduleSpamReaction(wch, author, now)
		}
		delete(e.watches, author.ID)
	}
}

// composeOrganic builds the author's post: benign content with hashtags
// and trending topics matching the author's habits, or — when the author
// is a spammer — occasionally camouflage (benign) content.
func (e *Engine) composeOrganic(author *Account, now time.Time) *Tweet {
	kind := KindTweet
	var text string
	var mentions []AccountID

	switch r := e.rng.Float64(); {
	case r < 0.12:
		if src := e.sampleRecent(); src != nil {
			kind = KindRetweet
			srcAuthor := e.world.byID[src.AuthorID]
			if srcAuthor != nil {
				text = "RT @" + srcAuthor.ScreenName + ": " + src.Text
				mentions = append(mentions, src.AuthorID)
			}
		}
	case r < 0.20:
		if src := e.sampleRecent(); src != nil {
			kind = KindQuote
			text = e.gen.benignReply() + " // " + src.Text
			mentions = append(mentions, src.AuthorID)
		}
	}
	spam := false
	campaign := NoCampaign
	if text == "" {
		if author.Kind == KindSpammer && author.spamBudget > 0 &&
			e.rng.Float64() < 0.08 && e.spendSpamBudget(author) {
			// Broadcast spam on the spammer's own timeline
			// (Category (1) spam when the account is selected).
			c := e.world.campaigns[author.CampaignID]
			text = e.spamText(c)
			spam = true
			campaign = c.ID
		} else {
			text = e.gen.benignTweet()
		}
	}

	t := &Tweet{
		AuthorID:   author.ID,
		CreatedAt:  now,
		Kind:       kind,
		Source:     e.source(author),
		Text:       text,
		Mentions:   mentions,
		Spam:       spam,
		CampaignID: campaign,
	}
	e.decorate(t, author)
	return t
}

// fireReply emits a benign mention of target from a sampled replier.
func (e *Engine) fireReply(target *Account, now time.Time) {
	replier := e.sampleVictim() // activity-weighted; close enough to a
	// follower sample for reply sourcing
	if replier == nil || replier.ID == target.ID || replier.Suspended {
		return
	}
	t := &Tweet{
		AuthorID:  replier.ID,
		CreatedAt: now,
		Kind:      KindTweet,
		Source:    e.source(replier),
		Text:      "@" + target.ScreenName + " " + e.gen.benignReply(),
		Mentions:  []AccountID{target.ID},
	}
	e.emit(t)
}

// scheduleSpam queues the hour's spam campaigns: each active spammer picks
// victims, registers fast-reaction watches on them, and falls back to an
// unprompted mention if the victim stays quiet this hour.
func (e *Engine) scheduleSpam(hourStart, hourEnd time.Time) {
	cfg := e.world.cfg
	for _, a := range e.world.accounts {
		if a.Kind != KindSpammer || a.Suspended || a.spamBudget <= 0 {
			continue
		}
		if e.rng.Float64() >= cfg.SpammerActiveProb {
			continue
		}
		spammer := a
		targets := e.poisson(cfg.SpamTargetsPerHour)
		if targets > spammer.spamBudget {
			targets = spammer.spamBudget
		}
		for i := 0; i < targets; i++ {
			victim := e.sampleVictim()
			// A share of spammers hunt in the rising-topic streams:
			// they reply to whoever just posted on a trending-up topic.
			if e.rng.Float64() < 0.12 {
				if v := e.sampleUpPoster(); v != nil {
					victim = v
				}
			}
			if victim == nil || victim.ID == spammer.ID {
				continue
			}
			wch := &spamWatch{spammer: spammer, count: e.spamsPerTarget()}
			e.watches[victim.ID] = append(e.watches[victim.ID], wch)
			// Spammers react to fresh posts; a victim that stays quiet
			// all hour is usually abandoned, but a quarter of spammers
			// reply to the victim's stale post at hour end anyway.
			stale := e.rng.Float64() < 0.25
			e.queue.Push(hourEnd.Add(-time.Second), func(now time.Time) {
				if wch.fired || !stale {
					return
				}
				wch.fired = true
				e.fireSpamMention(wch, e.world.byID[victim.ID], now)
			})
		}
	}
}

// scheduleSpamReaction queues the watch's spam mentions shortly after the
// victim's post, using the campaign's fast reaction delay — the signal
// behind the paper's mention-time feature.
func (e *Engine) scheduleSpamReaction(wch *spamWatch, victim *Account, postAt time.Time) {
	c := e.world.campaigns[wch.spammer.CampaignID]
	delay := time.Duration(e.rng.ExpFloat64()*c.ReactionDelayMeanSeconds) * time.Second
	if delay < time.Second {
		delay = time.Second
	}
	e.queue.Push(postAt.Add(delay), func(now time.Time) {
		e.fireSpamMention(wch, victim, now)
	})
}

// fireSpamMention emits the watch's spam mentions of victim.
func (e *Engine) fireSpamMention(wch *spamWatch, victim *Account, now time.Time) {
	spammer := wch.spammer
	if spammer.Suspended || victim == nil {
		return
	}
	if !e.spendSpamBudget(spammer) {
		return
	}
	c := e.world.campaigns[spammer.CampaignID]
	body := e.spamText(c)
	t := &Tweet{
		AuthorID:   spammer.ID,
		CreatedAt:  now,
		Kind:       KindTweet,
		Source:     e.source(spammer),
		Text:       "@" + victim.ScreenName + " " + body,
		Mentions:   []AccountID{victim.ID},
		Spam:       true,
		CampaignID: c.ID,
	}
	if !c.LoneWolf() || strings.Contains(body, "http") {
		t.URLs = []string{c.URL(e.rng)}
	}
	// Spam frequently rides trending hashtags.
	if e.rng.Float64() < 0.4 {
		topic := e.world.trends.Sample(TrendUp)
		t.Hashtags = append(t.Hashtags, topic.Name)
		t.Topic = topic.Name
	}
	e.emit(t)

	// Remaining spams to the same victim follow at short intervals,
	// scheduled through the queue to keep global emission chronological.
	if wch.count > 1 {
		wch.count--
		e.queue.Push(now.Add(17*time.Second), func(next time.Time) {
			e.fireSpamMention(wch, victim, next)
		})
	}
}

// spamText instantiates the campaign's spam body: shared templates for
// campaign members, private filler-word templates (URL only sometimes) for
// lone wolves.
func (e *Engine) spamText(c *Campaign) string {
	if c.LoneWolf() {
		return e.gen.loneWolfTweet(c.Template(e.rng), c.URL(e.rng),
			e.rng.Float64() < 0.6)
	}
	return e.gen.campaignTweet(c.Template(e.rng), c.URL(e.rng))
}

// decorate attaches hashtags, topics, and URLs to an organic tweet based on
// the author's habits.
func (e *Engine) decorate(t *Tweet, author *Account) {
	if t.Spam {
		c := e.world.campaigns[t.CampaignID]
		if !c.LoneWolf() || strings.Contains(t.Text, "http") {
			t.URLs = append(t.URLs, c.URL(e.rng))
		}
		if e.rng.Float64() < 0.4 {
			topic := e.world.trends.Sample(TrendUp)
			t.Hashtags = append(t.Hashtags, topic.Name)
			t.Topic = topic.Name
		}
		return
	}
	if author.HashtagCategory != HashtagNone && e.rng.Float64() < 0.6 {
		tags := topHashtags[author.HashtagCategory]
		t.Hashtags = append(t.Hashtags, tags[e.rng.Intn(len(tags))])
	}
	if author.TrendAffinity != TrendNone && e.rng.Float64() < 0.5 {
		topic := e.world.trends.Sample(author.TrendAffinity)
		t.Topic = topic.Name
		t.Hashtags = append(t.Hashtags, topic.Name)
	}
}

// emit finalizes a tweet, updates world state, and fans it out to
// subscribers.
func (e *Engine) emit(t *Tweet) {
	e.tweetSeq++
	t.ID = e.tweetSeq
	if t.CampaignID == 0 && !t.Spam {
		t.CampaignID = NoCampaign
	}

	author := e.world.byID[t.AuthorID]
	if author != nil {
		author.StatusesCount++
		author.lastPostAt = t.CreatedAt
	}
	for _, m := range t.Mentions {
		if target := e.world.byID[m]; target != nil {
			target.recentMentions++
		}
		e.stats.MentionTweets++
	}
	e.world.profilesChanged() // before the subscribers below can screen
	e.stats.TweetsTotal++
	if t.Spam {
		e.stats.SpamTotal++
		e.spammerSeen[t.AuthorID] = struct{}{}
	}
	if !t.Spam && t.Kind == KindTweet {
		e.recentTweets[e.recentNext%len(e.recentTweets)] = t
		e.recentNext++
	}
	if !t.Spam && t.Topic != "" && author != nil &&
		author.TrendAffinity == TrendUp {
		e.upPosters[e.upPostersNext%len(e.upPosters)] = t.AuthorID
		e.upPostersNext++
	}
	for _, fn := range e.subs {
		fn(t)
	}
}

// sampleUpPoster returns a random account that recently posted on a
// trending-up topic, or nil when none have yet.
func (e *Engine) sampleUpPoster() *Account {
	n := e.upPostersNext
	if n > len(e.upPosters) {
		n = len(e.upPosters)
	}
	if n == 0 {
		return nil
	}
	a := e.world.byID[e.upPosters[e.rng.Intn(n)]]
	if a == nil || a.Suspended {
		return nil
	}
	return a
}

// sampleRecent returns a random recent benign tweet, or nil.
func (e *Engine) sampleRecent() *Tweet {
	n := e.recentNext
	if n > len(e.recentTweets) {
		n = len(e.recentTweets)
	}
	if n == 0 {
		return nil
	}
	return e.recentTweets[e.rng.Intn(n)]
}

// source draws the tweet source, usually the author's preferred client.
func (e *Engine) source(a *Account) Source {
	if e.rng.Float64() < 0.8 {
		return a.PreferredSource
	}
	return Source(e.rng.Intn(NumSources) + 1)
}

// spamsPerTarget draws the number of spam messages sent to one victim:
// overwhelmingly 1, with a geometric tail (paper Fig. 2: >90% of spammers
// post a single spam, <0.03% more than 10).
func (e *Engine) spamsPerTarget() int {
	if e.rng.Float64() < 0.93 {
		return 1
	}
	n := 2
	for n < 30 && e.rng.Float64() < 0.45 {
		n++
	}
	return n
}

// poisson draws a Poisson variate with mean lambda (Knuth's method; the
// engine's lambdas are small).
func (e *Engine) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= e.rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

// repliesPerPost scales the expected organic replies to a post with the
// author's audience size.
func repliesPerPost(a *Account) float64 {
	return clampF(0.05+0.22*log10(float64(a.FollowersCount)+1), 0, 2.5)
}
