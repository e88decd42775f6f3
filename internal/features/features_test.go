package features

import (
	"sort"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/simclock"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

func testAccount(id socialnet.AccountID) *socialnet.Account {
	return &socialnet.Account{
		ID:              id,
		ScreenName:      "user_test",
		Name:            "User Test",
		Description:     "hello world 123",
		CreatedAt:       simclock.Epoch.Add(-100 * 24 * time.Hour),
		FriendsCount:    50,
		FollowersCount:  200,
		ListedCount:     10,
		FavouritesCount: 300,
		StatusesCount:   1000,
	}
}

func testTweet(id socialnet.TweetID, author socialnet.AccountID, at time.Time, text string) *socialnet.Tweet {
	return &socialnet.Tweet{
		ID:        id,
		AuthorID:  author,
		CreatedAt: at,
		Kind:      socialnet.KindTweet,
		Source:    socialnet.SourceMobile,
		Text:      text,
	}
}

// extract is the whole feature step for one observation, in stream order.
func extract(e *Extractor, o Observation) Vector {
	v := Stateless(o)
	e.CompleteStateful(o, &v)
	return v
}

func TestNumFeaturesIs58(t *testing.T) {
	if NumFeatures != 58 {
		t.Fatalf("NumFeatures = %d, want the paper's 58", NumFeatures)
	}
	if FBehaviorEnvScore != 57 {
		t.Fatalf("last feature index = %d, want 57", FBehaviorEnvScore)
	}
}

func TestFeatureNamesComplete(t *testing.T) {
	seen := make(map[string]int, NumFeatures)
	for i := 0; i < NumFeatures; i++ {
		n := Name(i)
		if n == "" || n == "unknown" {
			t.Fatalf("feature %d has no name", i)
		}
		if prev, dup := seen[n]; dup {
			t.Fatalf("features %d and %d share name %q", prev, i, n)
		}
		seen[n] = i
	}
	if Name(-1) != "unknown" || Name(NumFeatures) != "unknown" {
		t.Fatal("out-of-range Name should be unknown")
	}
}

func TestSenderProfileFeatures(t *testing.T) {
	e := NewExtractor()
	sender := testAccount(1)
	sender.Verified = true
	sender.DefaultProfileImage = true
	tw := testTweet(1, 1, simclock.Epoch, "hello")
	v := extract(e, Observation{Tweet: tw, Sender: sender})

	if v[FSenderFriends] != 50 || v[FSenderFollowers] != 200 {
		t.Fatal("sender friend/follower features wrong")
	}
	if v[FSenderAgeDays] != 100 {
		t.Fatalf("sender age = %v, want 100", v[FSenderAgeDays])
	}
	if v[FSenderStatusesPerDay] != 10 {
		t.Fatalf("sender statuses/day = %v, want 10", v[FSenderStatusesPerDay])
	}
	if v[FSenderVerified] != 1 || v[FSenderDefaultImage] != 1 {
		t.Fatal("sender boolean features wrong")
	}
	if v[FSenderScreenNameLen] != float64(len("user_test")) {
		t.Fatal("screen name length wrong")
	}
	if v[FSenderDescDigits] != 3 {
		t.Fatalf("desc digits = %v, want 3", v[FSenderDescDigits])
	}
}

func TestReceiverFeaturesZeroWithoutReceiver(t *testing.T) {
	e := NewExtractor()
	tw := testTweet(1, 1, simclock.Epoch, "hello")
	v := extract(e, Observation{Tweet: tw, Sender: testAccount(1)})
	for i := FReceiverFriends; i <= FReceiverDescDigits; i++ {
		if v[i] != 0 {
			t.Fatalf("receiver feature %d = %v without a receiver", i, v[i])
		}
	}
}

func TestContentFeatures(t *testing.T) {
	e := NewExtractor()
	tw := &socialnet.Tweet{
		ID: 1, AuthorID: 1, CreatedAt: simclock.Epoch,
		Kind: socialnet.KindQuote, Source: socialnet.SourceThirdParty,
		Text:     "win money now 123 \U0001F911",
		Hashtags: []string{"a", "b"},
		Mentions: []socialnet.AccountID{2},
	}
	v := extract(e, Observation{Tweet: tw, Sender: testAccount(1)})
	if v[FContentKind] != float64(socialnet.KindQuote) {
		t.Fatal("content kind wrong")
	}
	if v[FContentSource] != float64(socialnet.SourceThirdParty) {
		t.Fatal("content source wrong")
	}
	if v[FContentHashtags] != 2 || v[FContentMentions] != 1 {
		t.Fatal("hashtag/mention counts wrong")
	}
	if v[FContentEmoji] != 1 {
		t.Fatalf("content emoji = %v, want 1", v[FContentEmoji])
	}
	if v[FContentDigits] != 3 {
		t.Fatalf("content digits = %v, want 3", v[FContentDigits])
	}
}

func TestRepeatedContentFlag(t *testing.T) {
	e := NewExtractor()
	s := testAccount(1)
	first := extract(e, Observation{Tweet: testTweet(1, 1, simclock.Epoch, "same text"), Sender: s})
	second := extract(e, Observation{Tweet: testTweet(2, 1, simclock.Epoch.Add(time.Minute), "same text"), Sender: s})
	if first[FContentRepeated] != 0 {
		t.Fatal("first occurrence flagged as repeated")
	}
	if second[FContentRepeated] != 1 {
		t.Fatal("second occurrence not flagged as repeated")
	}
}

func TestReciprocityAccumulates(t *testing.T) {
	e := NewExtractor()
	s, r := testAccount(1), testAccount(2)
	obs := func(id socialnet.TweetID, at time.Time) Observation {
		tw := testTweet(id, 1, at, "hi")
		tw.Mentions = []socialnet.AccountID{2}
		return Observation{Tweet: tw, Sender: s, Receiver: r}
	}
	v1 := extract(e, obs(1, simclock.Epoch))
	v2 := extract(e, obs(2, simclock.Epoch.Add(time.Minute)))
	v3 := extract(e, obs(3, simclock.Epoch.Add(2*time.Minute)))
	if v1[FBehaviorReciprocity] != 0 || v2[FBehaviorReciprocity] != 1 || v3[FBehaviorReciprocity] != 2 {
		t.Fatalf("reciprocity sequence = %v %v %v, want 0 1 2",
			v1[FBehaviorReciprocity], v2[FBehaviorReciprocity], v3[FBehaviorReciprocity])
	}
}

func TestTweetKindDistribution(t *testing.T) {
	e := NewExtractor()
	s := testAccount(1)
	at := simclock.Epoch
	kinds := []socialnet.TweetKind{
		socialnet.KindTweet, socialnet.KindTweet, socialnet.KindRetweet,
		socialnet.KindQuote,
	}
	for i, k := range kinds {
		tw := testTweet(socialnet.TweetID(i+1), 1, at.Add(time.Duration(i)*time.Minute), "t")
		tw.Kind = k
		extract(e, Observation{Tweet: tw, Sender: s})
	}
	// Next observation sees the distribution over the 4 prior tweets.
	v := extract(e, Observation{Tweet: testTweet(9, 1, at.Add(time.Hour), "t"), Sender: s})
	if v[FBehaviorSenderTweetPct] != 0.5 {
		t.Fatalf("tweet pct = %v, want 0.5", v[FBehaviorSenderTweetPct])
	}
	if v[FBehaviorSenderRetweetPct] != 0.25 || v[FBehaviorSenderQuotePct] != 0.25 {
		t.Fatal("retweet/quote pcts wrong")
	}
}

func TestSourceDistribution(t *testing.T) {
	e := NewExtractor()
	s := testAccount(1)
	sources := []socialnet.Source{
		socialnet.SourceWeb, socialnet.SourceWeb,
		socialnet.SourceThirdParty, socialnet.SourceMobile,
	}
	for i, src := range sources {
		tw := testTweet(socialnet.TweetID(i+1), 1, simclock.Epoch.Add(time.Duration(i)*time.Minute), "t")
		tw.Source = src
		extract(e, Observation{Tweet: tw, Sender: s})
	}
	v := extract(e, Observation{Tweet: testTweet(9, 1, simclock.Epoch.Add(time.Hour), "t"), Sender: s})
	if v[FBehaviorSenderWebPct] != 0.5 {
		t.Fatalf("web pct = %v, want 0.5", v[FBehaviorSenderWebPct])
	}
	if v[FBehaviorSenderThirdPct] != 0.25 || v[FBehaviorSenderMobilePct] != 0.25 {
		t.Fatal("source pcts wrong")
	}
	if v[FBehaviorSenderOtherPct] != 0 {
		t.Fatal("other pct should be 0")
	}
}

func TestMentionTimeFromObservedPosts(t *testing.T) {
	e := NewExtractor()
	honeypot := testAccount(2)
	spammer := testAccount(3)

	// The honeypot posts (observed by the monitor, Category (1)).
	post := testTweet(1, 2, simclock.Epoch, "my own post")
	extract(e, Observation{Tweet: post, Sender: honeypot})

	// 90 seconds later a spam mention arrives.
	mention := testTweet(2, 3, simclock.Epoch.Add(90*time.Second), "@user_test click this")
	mention.Mentions = []socialnet.AccountID{2}
	v := extract(e, Observation{Tweet: mention, Sender: spammer, Receiver: honeypot})
	if v[FBehaviorMentionTime] != 90 {
		t.Fatalf("mention time = %v, want 90s", v[FBehaviorMentionTime])
	}
}

func TestMentionTimeUnknownDefaultsToDay(t *testing.T) {
	e := NewExtractor()
	mention := testTweet(1, 3, simclock.Epoch, "@x hi")
	mention.Mentions = []socialnet.AccountID{2}
	v := extract(e, Observation{Tweet: mention, Sender: testAccount(3), Receiver: testAccount(2)})
	if v[FBehaviorMentionTime] != 86400 {
		t.Fatalf("unknown mention time = %v, want 86400", v[FBehaviorMentionTime])
	}
}

func TestAvgTweetInterval(t *testing.T) {
	e := NewExtractor()
	s := testAccount(1)
	at := simclock.Epoch
	for i := 0; i < 3; i++ {
		extract(e, Observation{
			Tweet:  testTweet(socialnet.TweetID(i+1), 1, at.Add(time.Duration(i)*10*time.Minute), "t"),
			Sender: s,
		})
	}
	v := extract(e, Observation{Tweet: testTweet(9, 1, at.Add(time.Hour), "t"), Sender: s})
	if v[FBehaviorAvgInterval] != 600 {
		t.Fatalf("avg interval = %v, want 600s", v[FBehaviorAvgInterval])
	}
}

func TestAvgIntervalDefaultWithoutHistory(t *testing.T) {
	e := NewExtractor()
	v := extract(e, Observation{Tweet: testTweet(1, 1, simclock.Epoch, "t"), Sender: testAccount(1)})
	if v[FBehaviorAvgInterval] != 3600 {
		t.Fatalf("default avg interval = %v, want 3600", v[FBehaviorAvgInterval])
	}
}

func TestEnvironmentScore(t *testing.T) {
	e := NewExtractor()
	// Before any spam attribution the score is τ.
	if got := e.EnvScore([]string{"followers_count"}); got != DefaultTau {
		t.Fatalf("initial env score = %v, want τ", got)
	}
	e.UpdateEnvScore("followers_count", 0.3)
	e.UpdateEnvScore("listed_count", 0.6)
	got := e.EnvScore([]string{"followers_count", "listed_count"})
	if got != 0.6 {
		t.Fatalf("env score = %v, want max 0.6", got)
	}
	// Unknown keys fall back to τ.
	if got := e.EnvScore([]string{"something_else"}); got != DefaultTau {
		t.Fatalf("unknown-key env score = %v, want τ", got)
	}

	tw := testTweet(1, 1, simclock.Epoch, "t")
	v := extract(e, Observation{
		Tweet: tw, Sender: testAccount(1),
		AttrKeys: []string{"listed_count"},
	})
	if v[FBehaviorEnvScore] != 0.6 {
		t.Fatalf("vector env score = %v, want 0.6", v[FBehaviorEnvScore])
	}
}

// The core discriminative signal: spam reactions have much shorter mention
// times than organic replies when extracted from a live stream.
func TestExtractorOnSimulatedStream(t *testing.T) {
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 1500
	cfg.OrganicTweetsPerHour = 300
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := socialnet.NewEngine(w)
	ex := NewExtractor()

	var spamMention, organicMention []float64
	e.Subscribe(func(tw *socialnet.Tweet) {
		sender := w.Account(tw.AuthorID)
		var receiver *socialnet.Account
		if len(tw.Mentions) > 0 {
			receiver = w.Account(tw.Mentions[0])
		}
		v := extract(ex, Observation{Tweet: tw, Sender: sender, Receiver: receiver})
		if receiver == nil {
			return
		}
		if tw.Spam {
			spamMention = append(spamMention, v[FBehaviorMentionTime])
		} else {
			organicMention = append(organicMention, v[FBehaviorMentionTime])
		}
	})
	e.RunHours(6)

	if len(spamMention) < 30 || len(organicMention) < 30 {
		t.Fatalf("too few mention samples: spam=%d organic=%d",
			len(spamMention), len(organicMention))
	}
	median := func(xs []float64) float64 {
		cp := append([]float64(nil), xs...)
		sort.Float64s(cp)
		return cp[len(cp)/2]
	}
	if median(spamMention) >= median(organicMention) {
		t.Fatalf("median spam mention time %v >= organic %v",
			median(spamMention), median(organicMention))
	}
}
