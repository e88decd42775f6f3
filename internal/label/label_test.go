package label

import (
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/simclock"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// collectCorpus runs a small world for hours and returns the mention
// corpus (the kind of data a pseudo-honeypot monitor collects) plus the
// world.
func collectCorpus(t testing.TB, hours int) (*Corpus, *socialnet.World) {
	t.Helper()
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 1500
	cfg.OrganicTweetsPerHour = 300
	cfg.SuspensionRatePerHour = 0.02
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := socialnet.NewEngine(w)
	var tweets []*socialnet.Tweet
	e.Subscribe(func(tw *socialnet.Tweet) {
		if len(tw.Mentions) > 0 {
			tweets = append(tweets, tw)
		}
	})
	e.RunHours(hours)
	return NewCorpus(tweets, w.Account), w
}

func TestPipelineEndToEnd(t *testing.T) {
	corpus, w := collectCorpus(t, 10)
	if len(corpus.Tweets) == 0 {
		t.Fatal("empty corpus")
	}
	p := NewPipeline(DefaultConfig())
	oracle := NewNoisyOracle(w, 0.02, 7)
	r := p.Run(corpus, oracle)

	if r.TotalSpams() == 0 || r.TotalSpammers() == 0 {
		t.Fatalf("no labels: spams=%d spammers=%d", r.TotalSpams(), r.TotalSpammers())
	}

	// Quality: labeled spams should be overwhelmingly true spam.
	correct, wrong := 0, 0
	byID := make(map[socialnet.TweetID]*socialnet.Tweet)
	for _, tw := range corpus.Tweets {
		byID[tw.ID] = tw
	}
	for id := range r.SpamTweets {
		if byID[id].Spam {
			correct++
		} else {
			wrong++
		}
	}
	if precision := float64(correct) / float64(correct+wrong); precision < 0.85 {
		t.Fatalf("labeled-spam precision %v too low (%d/%d)", precision, correct, correct+wrong)
	}

	// Coverage: the pipeline should find a majority of the true spam.
	trueSpam := 0
	for _, tw := range corpus.Tweets {
		if tw.Spam {
			trueSpam++
		}
	}
	if recall := float64(correct) / float64(trueSpam); recall < 0.5 {
		t.Fatalf("labeled-spam recall %v too low", recall)
	}
}

func TestPipelineMethodOrderingMatchesTableIII(t *testing.T) {
	corpus, w := collectCorpus(t, 10)
	p := NewPipeline(DefaultConfig())
	r := p.Run(corpus, NewNoisyOracle(w, 0.02, 7))

	counts := r.Counts()
	if len(counts) != 4 {
		t.Fatalf("Counts rows = %d, want 4", len(counts))
	}
	byMethod := make(map[Method]MethodCount)
	for _, c := range counts {
		byMethod[c.Method] = c
	}
	// The paper's Table III ordering: suspended > clustering > rules >
	// manual for spam labels. Require the dominant ordering: suspended
	// contributes the most, manual the least among non-zero stages.
	if byMethod[MethodSuspended].Spams == 0 {
		t.Fatal("suspended stage labeled nothing")
	}
	if byMethod[MethodSuspended].Spams < byMethod[MethodManual].Spams {
		t.Fatalf("manual (%d) out-labeled suspended (%d)",
			byMethod[MethodManual].Spams, byMethod[MethodSuspended].Spams)
	}
	if byMethod[MethodClustering].Spams == 0 {
		t.Fatal("clustering stage labeled nothing")
	}
}

func TestSuspendedStage(t *testing.T) {
	now := simclock.Epoch
	spammer := &socialnet.Account{ID: 1, Suspended: true, Kind: socialnet.KindSpammer, CreatedAt: now}
	benign := &socialnet.Account{ID: 2, Kind: socialnet.KindNormal, CreatedAt: now}
	tweets := []*socialnet.Tweet{
		{ID: 1, AuthorID: 1, Text: "spammy spam", CreatedAt: now, Spam: true},
		{ID: 2, AuthorID: 2, Text: "hello world", CreatedAt: now},
	}
	c := &Corpus{
		Tweets: tweets,
		Users:  map[socialnet.AccountID]*socialnet.Account{1: spammer, 2: benign},
	}
	r := &Result{
		SpamTweets: make(map[socialnet.TweetID]Method),
		HamTweets:  make(map[socialnet.TweetID]Method),
		Spammers:   make(map[socialnet.AccountID]Method),
		Benign:     make(map[socialnet.AccountID]Method),
	}
	NewPipeline(DefaultConfig()).labelSuspended(c, r)
	if r.Spammers[1] != MethodSuspended {
		t.Fatal("suspended user not labeled spammer")
	}
	if r.SpamTweets[1] != MethodSuspended {
		t.Fatal("suspended user's tweet not labeled spam")
	}
	if _, ok := r.Spammers[2]; ok {
		t.Fatal("benign user labeled by suspended stage")
	}
}

func TestRuleSpamKeywords(t *testing.T) {
	repeats := map[string]int{}
	tests := []struct {
		text string
		want bool
	}{
		{text: "make easy money from home now", want: true},
		{text: "hot singles in your area", want: true},
		{text: "please verify your password here", want: true},
		{text: "buy cheap followers today", want: true},
		{text: "lovely weather for a picnic", want: false},
	}
	for _, tt := range tests {
		tw := &socialnet.Tweet{Text: tt.text}
		if got := ruleSpam(tw, normalizedKey(tw), repeats, 3); got != tt.want {
			t.Errorf("ruleSpam(%q) = %v, want %v", tt.text, got, tt.want)
		}
	}
}

func TestRuleSpamMaliciousURL(t *testing.T) {
	tw := &socialnet.Tweet{
		Text: "check this out",
		URLs: []string{"http://spam-click.example/abc"},
	}
	if !ruleSpam(tw, normalizedKey(tw), map[string]int{}, 3) {
		t.Fatal("malicious URL not flagged")
	}
}

func TestRuleSpamRepetition(t *testing.T) {
	text := "identical long promotional message that repeats"
	tw := &socialnet.Tweet{Text: text}
	repeats := map[string]int{normalizedKey(tw): 5}
	if !ruleSpam(tw, normalizedKey(tw), repeats, 3) {
		t.Fatal("repeated content not flagged")
	}
	repeats[normalizedKey(tw)] = 2
	if ruleSpam(tw, normalizedKey(tw), repeats, 3) {
		t.Fatal("below-threshold repetition flagged")
	}
}

func TestSeedWhitelist(t *testing.T) {
	now := simclock.Epoch
	seed := &socialnet.Account{
		ID: 1, Verified: true, FollowersCount: 500000,
		Kind: socialnet.KindSeed, CreatedAt: now,
	}
	// Even a money-keyword tweet from a seed account stays ham (the
	// whitelist wins, as in the paper's seed rule).
	tweets := []*socialnet.Tweet{
		{ID: 1, AuthorID: 1, Text: "our guide to make money from home safely", CreatedAt: now},
	}
	c := &Corpus{Tweets: tweets, Users: map[socialnet.AccountID]*socialnet.Account{1: seed}}
	r := &Result{
		SpamTweets: make(map[socialnet.TweetID]Method),
		HamTweets:  make(map[socialnet.TweetID]Method),
		Spammers:   make(map[socialnet.AccountID]Method),
		Benign:     make(map[socialnet.AccountID]Method),
	}
	p := NewPipeline(DefaultConfig())
	p.labelRules(c, r, p.tweetNorms(c))
	if _, ok := r.SpamTweets[1]; ok {
		t.Fatal("seed tweet labeled spam")
	}
	if r.HamTweets[1] != MethodRule {
		t.Fatal("seed tweet not whitelisted")
	}
}

func TestClusteringPropagatesThroughCampaign(t *testing.T) {
	// Build a synthetic campaign: 6 members share an image base and name
	// shape; one is suspended. Clustering must label the rest.
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 600
	cfg.OrganicTweetsPerHour = 50
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	campaign := w.Campaigns()[0]
	users := make(map[socialnet.AccountID]*socialnet.Account)
	var tweets []*socialnet.Tweet
	now := simclock.Epoch
	for i, id := range campaign.MemberIDs {
		a := w.Account(id)
		users[id] = a
		tweets = append(tweets, &socialnet.Tweet{
			ID: socialnet.TweetID(i + 1), AuthorID: id,
			Text: "benign-looking text from member", CreatedAt: now, Spam: true,
		})
	}
	// Suspend exactly one member.
	first := w.Account(campaign.MemberIDs[0])
	first.Suspended = true

	c := &Corpus{Tweets: tweets, Users: users}
	p := NewPipeline(DefaultConfig())
	r := &Result{
		SpamTweets: make(map[socialnet.TweetID]Method),
		HamTweets:  make(map[socialnet.TweetID]Method),
		Spammers:   make(map[socialnet.AccountID]Method),
		Benign:     make(map[socialnet.AccountID]Method),
	}
	p.labelSuspended(c, r)
	var userGroups [][]socialnet.AccountID
	var tweetGroups [][]*socialnet.Tweet
	parallel.ForEach(2, p.cfg.Workers, func(i int) {
		if i == 0 {
			userGroups = p.clusterUsers(c)
		} else {
			tweetGroups = p.clusterTweets(c, p.tweetNorms(c))
		}
	})
	p.propagate(r, userGroups, tweetGroups)

	labeled := 0
	for _, id := range campaign.MemberIDs {
		if _, ok := r.Spammers[id]; ok {
			labeled++
		}
	}
	if labeled < len(campaign.MemberIDs)*3/4 {
		t.Fatalf("clustering labeled %d/%d campaign members",
			labeled, len(campaign.MemberIDs))
	}
}

func TestManualCheckCleansFalseSuspensions(t *testing.T) {
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 300
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Find a benign account and falsely suspend it.
	var victim *socialnet.Account
	for _, a := range w.Accounts() {
		if a.Kind == socialnet.KindNormal && !a.Suspended {
			victim = a
			break
		}
	}
	victim.Suspended = true
	now := simclock.Epoch
	tweets := []*socialnet.Tweet{
		{ID: 1, AuthorID: victim.ID, Text: "an ordinary benign tweet", CreatedAt: now},
	}
	c := &Corpus{Tweets: tweets, Users: map[socialnet.AccountID]*socialnet.Account{victim.ID: victim}}
	p := NewPipeline(DefaultConfig())
	r := p.Run(c, NewPerfectOracle(w))
	if _, ok := r.Spammers[victim.ID]; ok {
		t.Fatal("manual check failed to clear falsely suspended user")
	}
	if _, ok := r.SpamTweets[1]; ok {
		t.Fatal("manual check failed to clear the false spam label")
	}
}

func TestManualBudgetBoundsQueries(t *testing.T) {
	corpus, w := collectCorpus(t, 4)
	cfg := DefaultConfig()
	cfg.ManualBudget = 10
	p := NewPipeline(cfg)
	r := p.Run(corpus, NewPerfectOracle(w))
	labeled := 0
	for _, m := range r.SpamTweets {
		if m == MethodManual {
			labeled++
		}
	}
	for _, m := range r.HamTweets {
		if m == MethodManual {
			labeled++
		}
	}
	// Manual labels on previously-unlabeled tweets are capped by budget;
	// verification flips can add more ham labels, so only check the cap
	// loosely via ManualChecks accounting: at most every tweet verified
	// once + every user verified once + the unlabeled budget.
	if labeled == 0 {
		t.Fatal("manual stage labeled nothing")
	}
	bound := len(corpus.Tweets) + len(corpus.Users) + 10
	if r.ManualChecks > bound {
		t.Fatalf("manual check count %d exceeds bound %d", r.ManualChecks, bound)
	}
}

func TestNilOracleSkipsManualStage(t *testing.T) {
	corpus, _ := collectCorpus(t, 3)
	p := NewPipeline(DefaultConfig())
	r := p.Run(corpus, nil)
	if r.ManualChecks != 0 {
		t.Fatal("manual checks ran without an oracle")
	}
}

func TestNoisyOracleDeterministicPerItem(t *testing.T) {
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 200
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := NewNoisyOracle(w, 0.3, 5)
	tw := &socialnet.Tweet{ID: 42, Spam: true}
	first := o.TweetIsSpam(tw)
	for i := 0; i < 10; i++ {
		if o.TweetIsSpam(tw) != first {
			t.Fatal("oracle answer changed between queries")
		}
	}
}

func TestNoisyOracleErrorRate(t *testing.T) {
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 200
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := NewNoisyOracle(w, 0.1, 5)
	wrong := 0
	const n = 5000
	for i := 0; i < n; i++ {
		tw := &socialnet.Tweet{ID: socialnet.TweetID(i), Spam: true}
		if !o.TweetIsSpam(tw) {
			wrong++
		}
	}
	rate := float64(wrong) / n
	if rate < 0.05 || rate > 0.15 {
		t.Fatalf("observed error rate %v, want ≈0.1", rate)
	}
}

func TestNoisyOracleClampssErrRate(t *testing.T) {
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 100
	w, _ := socialnet.NewWorld(cfg)
	o := NewNoisyOracle(w, -1, 1)
	if o.errRate != 0 {
		t.Fatal("negative error rate not clamped")
	}
	o = NewNoisyOracle(w, 2, 1)
	if o.errRate >= 1 {
		t.Fatal("error rate >= 1 not clamped")
	}
}

func TestMethodStrings(t *testing.T) {
	want := map[Method]string{
		MethodSuspended:  "Suspended",
		MethodClustering: "Clustering",
		MethodRule:       "Rule Based",
		MethodManual:     "Human Labeling",
		Method(0):        "unknown",
	}
	for m, s := range want {
		if m.String() != s {
			t.Fatalf("Method(%d).String() = %q, want %q", m, m.String(), s)
		}
	}
}

func TestStripMentions(t *testing.T) {
	got := stripMentions("@alice check @bob this out")
	if got != "check this out" {
		t.Fatalf("stripMentions = %q", got)
	}
}

func TestClusterTextsGroupsNearDuplicates(t *testing.T) {
	texts := []string{
		"win free bitcoin today instant payout click now",
		"win free bitcoin today instant payout click here",
		"completely unrelated gardening thoughts about tulips",
	}
	groups := clusterTexts(texts, 0.7, 1, 0)
	var big []int
	for _, g := range groups {
		if len(g) > 1 {
			big = g
		}
	}
	if len(big) != 2 {
		t.Fatalf("near-duplicates grouped as %v", groups)
	}
}

func TestTweetWindowSplitsGroups(t *testing.T) {
	now := simclock.Epoch
	mk := func(id socialnet.TweetID, at time.Time) *socialnet.Tweet {
		return &socialnet.Tweet{
			ID: id, AuthorID: socialnet.AccountID(id),
			Text:      "identical spam promotional text for duplicate detection",
			CreatedAt: at,
		}
	}
	c := &Corpus{
		Tweets: []*socialnet.Tweet{
			mk(1, now), mk(2, now.Add(time.Hour)),
			mk(3, now.Add(80*24*time.Hour)), // far outside any shared window
		},
		Users: map[socialnet.AccountID]*socialnet.Account{},
	}
	p := NewPipeline(DefaultConfig())
	groups := p.clusterTweets(c, p.tweetNorms(c))
	for _, g := range groups {
		for _, tw := range g {
			if tw.ID == 3 && len(g) > 1 {
				t.Fatal("tweet outside the 1-day window grouped with older duplicates")
			}
		}
	}
}

func TestResultIsSpam(t *testing.T) {
	r := &Result{SpamTweets: map[socialnet.TweetID]Method{5: MethodRule}}
	if !r.IsSpam(5) || r.IsSpam(6) {
		t.Fatal("IsSpam wrong")
	}
}

func TestClusterPassTimings(t *testing.T) {
	corpus, w := collectCorpus(t, 3)
	reg := metrics.NewRegistry()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	NewPipeline(cfg).Run(corpus, NewNoisyOracle(w, 0.02, 7))

	passes := reg.HistogramVec("ph_label_cluster_seconds", "", nil, "pass")
	for _, pass := range []string{"image", "name", "description", "tweets"} {
		if got := passes.With(pass).Count(); got != 1 {
			t.Fatalf("cluster pass %q observed %d times, want 1", pass, got)
		}
	}
}
