package core

import (
	"math/rand"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

func testWorld(t *testing.T) *socialnet.World {
	t.Helper()
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 2000
	cfg.OrganicTweetsPerHour = 400
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// labelCaptures labels the captures the way the sniffer does: one batch
// into a label store, each tweet bound to its author's live account, then a
// Snapshot against a 2%-noise oracle.
func labelCaptures(captures []*Capture, w *socialnet.World) *label.Result {
	tweets := make([]*socialnet.Tweet, len(captures))
	authors := make([]*socialnet.Account, len(captures))
	for i, c := range captures {
		tweets[i] = c.Tweet
		authors[i] = w.Account(c.Tweet.AuthorID)
	}
	ls := label.NewStore(label.DefaultConfig())
	ls.AddBatch(tweets, authors, authors)
	return ls.Snapshot(label.NewNoisyOracle(w, 0.02, 3))
}

func TestStandardSpecsMatchPaperBudget(t *testing.T) {
	specs := StandardSpecs(10)
	if got := TotalNodes(specs); got != 2400 {
		t.Fatalf("total nodes = %d, want the paper's 2400", got)
	}
	profile, hashtag, trend := 0, 0, 0
	for _, s := range specs {
		switch s.Selector.Attr {
		case socialnet.AttrHashtag:
			hashtag += s.Nodes
		case socialnet.AttrTrend:
			trend += s.Nodes
		default:
			profile += s.Nodes
		}
	}
	if profile != 1100 || hashtag != 900 || trend != 400 {
		t.Fatalf("budget split = %d/%d/%d, want 1100/900/400", profile, hashtag, trend)
	}
}

func TestStandardSpecsScaleDown(t *testing.T) {
	specs := StandardSpecs(2)
	if got := TotalNodes(specs); got != 480 {
		t.Fatalf("scaled total = %d, want 480", got)
	}
	if got := TotalNodes(StandardSpecs(0)); got != 2400 {
		t.Fatalf("default scale total = %d, want 2400", got)
	}
}

func TestSampleValuesMatchTableII(t *testing.T) {
	if len(SampleValues) != 11 {
		t.Fatalf("%d profile attributes, want 11", len(SampleValues))
	}
	for attr, vals := range SampleValues {
		if len(vals) != 10 {
			t.Fatalf("%v has %d sample values, want 10", attr, len(vals))
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] <= vals[i-1] {
				t.Fatalf("%v sample values not increasing: %v", attr, vals)
			}
		}
	}
	// Spot-check the distinctive values of Table II.
	if SampleValues[socialnet.AttrTotalFriendsFollowers][9] != 30000 {
		t.Fatal("total friends+followers max should be 30k")
	}
	if SampleValues[socialnet.AttrListsPerDay][8] != 1 {
		t.Fatal("lists/day ninth value should be 1")
	}
	if SampleValues[socialnet.AttrFriendFollowerRatio][0] != 0.1 {
		t.Fatal("ratio first value should be 1/10")
	}
}

func TestRandomSpec(t *testing.T) {
	specs := RandomSpec(100)
	if len(specs) != 1 || specs[0].Nodes != 100 ||
		specs[0].Selector.Attr != socialnet.AttrRandom {
		t.Fatalf("RandomSpec = %+v", specs)
	}
}

func TestMonitorRotateSelectsBudget(t *testing.T) {
	w := testWorld(t)
	m := NewMonitor(MonitorConfig{
		Specs: RandomSpec(50),
		Seed:  1,
	}, &LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
	m.Rotate(time.Now(), time.Hour)
	if m.NodeCount() != 50 {
		t.Fatalf("selected %d nodes, want 50", m.NodeCount())
	}
	if m.Rotations() != 1 {
		t.Fatalf("rotations = %d", m.Rotations())
	}
	if got := m.Groups()[0].NodeHours; got != 50 {
		t.Fatalf("node-hours = %v, want 50", got)
	}
}

func TestMonitorRotationExcludesPriorNodes(t *testing.T) {
	w := testWorld(t)
	m := NewMonitor(MonitorConfig{
		Specs: RandomSpec(30),
		Seed:  1,
	}, &LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
	m.Rotate(time.Now(), time.Hour)
	first := make(map[socialnet.AccountID]struct{})
	for id := range m.nodes {
		first[id] = struct{}{}
	}
	m.Rotate(time.Now().Add(time.Hour), time.Hour)
	for id := range m.nodes {
		if _, dup := first[id]; dup {
			t.Fatalf("node %d reselected in consecutive rotation", id)
		}
	}
}

func TestMonitorRotationFallsBackWhenExhausted(t *testing.T) {
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 120
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(MonitorConfig{
		Specs: RandomSpec(100),
		Seed:  1,
	}, &LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
	for i := 0; i < 5; i++ {
		m.Rotate(time.Now(), time.Hour)
		if m.NodeCount() < 90 {
			t.Fatalf("rotation %d selected only %d nodes", i, m.NodeCount())
		}
	}
}

func TestMonitorCapturesMentionTraffic(t *testing.T) {
	w := testWorld(t)
	e := socialnet.NewEngine(w)
	m := NewMonitor(MonitorConfig{
		Specs: StandardSpecs(1),
		Seed:  1,
	}, &LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
	detach := Attach(m, e)
	defer detach()
	e.RunHours(4)

	if len(m.Captures()) == 0 {
		t.Fatal("no captures after 4 hours")
	}
	for _, c := range m.Captures() {
		if len(c.Groups) == 0 {
			t.Fatal("capture with no groups")
		}
		if c.Sender == nil {
			t.Fatal("capture without sender profile")
		}
	}
	// Tweets counted per group must sum to at least the capture count
	// (captures may belong to multiple groups).
	groupTweets := 0
	for _, g := range m.Groups() {
		groupTweets += g.Tweets
	}
	if groupTweets < len(m.Captures()) {
		t.Fatalf("group tweets %d < captures %d", groupTweets, len(m.Captures()))
	}
}

func TestMonitorCapturesOnlyNodeTraffic(t *testing.T) {
	w := testWorld(t)
	e := socialnet.NewEngine(w)
	m := NewMonitor(MonitorConfig{
		Specs: RandomSpec(40),
		Seed:  1,
	}, &LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})

	nodesByHour := make(map[socialnet.AccountID]struct{})
	e.OnHourStart(func(hour int, now time.Time) {
		m.Rotate(now, time.Hour)
		for id := range m.nodes {
			nodesByHour[id] = struct{}{}
		}
	})
	e.Subscribe(func(tw *socialnet.Tweet) { m.OnTweet(tw, w.Account) })
	e.RunHours(3)

	for _, c := range m.Captures() {
		ok := false
		if _, isNode := nodesByHour[c.Tweet.AuthorID]; isNode {
			ok = true
		}
		for _, mention := range c.Tweet.Mentions {
			if _, isNode := nodesByHour[mention]; isNode {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("capture %d unrelated to any node", c.Tweet.ID)
		}
	}
}

func TestEndToEndDetectorPipeline(t *testing.T) {
	w := testWorld(t)
	e := socialnet.NewEngine(w)
	m := NewMonitor(MonitorConfig{
		Specs: RandomSpec(120),
		Seed:  1,
	}, &LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
	detach := Attach(m, e)
	defer detach()
	e.RunHours(8)

	captures := m.Captures()
	if len(captures) < 100 {
		t.Fatalf("only %d captures", len(captures))
	}

	labels := labelCaptures(captures, w)

	// Train RF and classify.
	clf, err := NewClassifier(ClassifierRF, 1)
	if err != nil {
		t.Fatal(err)
	}
	det := NewDetector(clf)
	if err := det.Train(captures, labels); err != nil {
		t.Fatal(err)
	}
	verdicts := det.Classify(captures)
	m.AttributeSpam(verdicts)

	// The detector should agree with ground truth far better than chance.
	correct := 0
	for i, c := range captures {
		if verdicts[i] == c.Tweet.Spam {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(captures)); acc < 0.9 {
		t.Fatalf("detector train-set agreement with ground truth = %v", acc)
	}

	// Attribution should fill group spam counters.
	spams := 0
	for _, g := range m.Groups() {
		spams += g.Spams
	}
	if spams == 0 {
		t.Fatal("no spam attributed to groups")
	}
}

func TestNewClassifierUnknown(t *testing.T) {
	if _, err := NewClassifier("bogus", 1); err == nil {
		t.Fatal("unknown classifier accepted")
	}
	for _, name := range ClassifierNames {
		if _, err := NewClassifier(name, 1); err != nil {
			t.Fatalf("NewClassifier(%s): %v", name, err)
		}
	}
}

func TestBuildDatasetNilLabels(t *testing.T) {
	if _, err := BuildDataset(nil, nil); err == nil {
		t.Fatal("nil labels accepted")
	}
}

func TestDetectorTrainEmptyCaptures(t *testing.T) {
	clf, _ := NewClassifier(ClassifierDT, 1)
	det := NewDetector(clf)
	labels := &label.Result{
		SpamTweets: map[socialnet.TweetID]label.Method{},
	}
	if err := det.Train(nil, labels); err == nil {
		t.Fatal("empty training set accepted")
	}
}

func TestComputePGEOrdersDescending(t *testing.T) {
	groups := []*GroupStats{
		{
			Spec:      SelectorSpec{Selector: socialnet.Selector{Attr: socialnet.AttrFriends, Value: 10}},
			NodeHours: 100,
			Spammers:  set(1, 2),
		},
		{
			Spec:      SelectorSpec{Selector: socialnet.Selector{Attr: socialnet.AttrLists, Value: 500}},
			NodeHours: 100,
			Spammers:  set(1, 2, 3, 4, 5, 6),
		},
		{
			Spec:      SelectorSpec{Selector: socialnet.Selector{Attr: socialnet.AttrRandom}},
			NodeHours: 0,
			Spammers:  set(),
		},
	}
	rows := ComputePGE(groups)
	if rows[0].Selector.Attr != socialnet.AttrLists {
		t.Fatalf("top PGE selector = %v", rows[0].Selector)
	}
	if rows[0].PGE != 0.06 {
		t.Fatalf("top PGE = %v, want 0.06", rows[0].PGE)
	}
	if rows[2].PGE != 0 {
		t.Fatal("zero node-hours should give zero PGE")
	}
}

func TestTopSelectorsAndAdvancedSpecs(t *testing.T) {
	rows := []PGERow{
		{Selector: socialnet.Selector{Attr: socialnet.AttrListsPerDay, Value: 1}, PGE: 3},
		{Selector: socialnet.Selector{Attr: socialnet.AttrFollowers, Value: 10000}, PGE: 2},
		{Selector: socialnet.Selector{Attr: socialnet.AttrFriends, Value: 10}, PGE: 1},
	}
	top := TopSelectors(rows, 2)
	if len(top) != 2 || top[0].Attr != socialnet.AttrListsPerDay {
		t.Fatalf("TopSelectors = %v", top)
	}
	specs := AdvancedSpecs(rows, 10, 10)
	if len(specs) != 3 {
		t.Fatalf("AdvancedSpecs truncation: %d", len(specs))
	}
	if TotalNodes(specs) != 30 {
		t.Fatalf("advanced nodes = %d", TotalNodes(specs))
	}
}

func TestSummarizeByAttributePoolsSampleValues(t *testing.T) {
	groups := []*GroupStats{
		{
			Spec:   SelectorSpec{Selector: socialnet.Selector{Attr: socialnet.AttrFriends, Value: 10}},
			Tweets: 10, Spams: 2,
			Spammers: set(1, 2),
		},
		{
			Spec:   SelectorSpec{Selector: socialnet.Selector{Attr: socialnet.AttrFriends, Value: 100}},
			Tweets: 20, Spams: 3,
			Spammers: set(2, 3),
		},
		{
			Spec:   SelectorSpec{Selector: socialnet.Selector{Attr: socialnet.AttrHashtag, Category: socialnet.HashtagSocial}},
			Tweets: 5, Spams: 5,
			Spammers: set(9),
		},
	}
	sums := SummarizeByAttribute(groups)
	if len(sums) != 2 {
		t.Fatalf("summaries = %d, want 2", len(sums))
	}
	// Friends pools both sample values, spammers deduplicated.
	var friends *AttrSummary
	for i := range sums {
		if sums[i].Attr == socialnet.AttrFriends {
			friends = &sums[i]
		}
	}
	if friends == nil || friends.Tweets != 30 || friends.Spams != 5 || friends.Spammers != 3 {
		t.Fatalf("friends summary = %+v", friends)
	}
	// Sorted by spammers descending.
	if sums[0].Spammers < sums[1].Spammers {
		t.Fatal("summaries not sorted by spammers")
	}
}

func TestAttributeSpamUpdatesEnvScores(t *testing.T) {
	w := testWorld(t)
	e := socialnet.NewEngine(w)
	m := NewMonitor(MonitorConfig{Specs: RandomSpec(80), Seed: 1},
		&LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
	detach := Attach(m, e)
	defer detach()
	e.RunHours(3)
	if len(m.Captures()) == 0 {
		t.Fatal("no captures")
	}
	// Attribute ground truth as verdicts.
	verdicts := make([]bool, len(m.Captures()))
	for i, c := range m.Captures() {
		verdicts[i] = c.Tweet.Spam
	}
	m.AttributeSpam(verdicts)
	g := m.Groups()[0]
	if g.Tweets == 0 {
		t.Fatal("group captured nothing")
	}
	wantP := float64(g.Spams) / float64(g.Tweets)
	got := m.Extractor().EnvScore([]string{g.Spec.Selector.Attr.Key()})
	if got != wantP {
		t.Fatalf("env score = %v, want %v", got, wantP)
	}
}

func set(ids ...socialnet.AccountID) map[socialnet.AccountID]struct{} {
	s := make(map[socialnet.AccountID]struct{}, len(ids))
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

func TestAccrueHoursExtendsNodeHours(t *testing.T) {
	w := testWorld(t)
	m := NewMonitor(MonitorConfig{Specs: RandomSpec(20), Seed: 1},
		&LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
	m.Rotate(time.Now(), time.Hour)
	before := m.Groups()[0].NodeHours
	m.AccrueHours(2 * time.Hour)
	after := m.Groups()[0].NodeHours
	if after != before*3 {
		t.Fatalf("node-hours %v -> %v, want tripled", before, after)
	}
	if m.Rotations() != 1 {
		t.Fatal("AccrueHours must not count as a rotation")
	}
}
