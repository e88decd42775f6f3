package label

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/minhash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/simclock"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// feedStore pushes the corpus stream into a store in arrival order, in
// micro-batches of batchSize (1 = item-by-item Add). With a prepper the
// batches take the shard workers' route instead: preps computed outside the
// store — a user prep only for the prepper-side first appearance of an
// author, as a shard dedupes, and none at all for odd ids, as WAL replay
// ships none — then AddBatchPrepared, which recomputes the missing ones.
func feedStore(s *Store, c *Corpus, batchSize int, prepper *Prepper) {
	shipped := make(map[socialnet.AccountID]bool)
	for i := 0; i < len(c.Tweets); i += batchSize {
		end := i + batchSize
		if end > len(c.Tweets) {
			end = len(c.Tweets)
		}
		batch := c.Tweets[i:end]
		authors := make([]*socialnet.Account, len(batch))
		for j, tw := range batch {
			authors[j] = c.Users[tw.AuthorID]
		}
		// In-process the live account doubles as its own profile
		// snapshot: the feed is synchronous with the (finished) stream.
		if prepper == nil {
			s.AddBatch(batch, authors, authors)
			continue
		}
		tweetPreps := make([]TweetPrep, len(batch))
		userPreps := make([]*UserPrep, len(batch))
		for j, tw := range batch {
			tweetPreps[j] = prepper.PrepTweet(tw)
			if a := authors[j]; a != nil && !shipped[a.ID] && a.ID%2 == 0 {
				shipped[a.ID] = true
				up := prepper.PrepUser(a)
				userPreps[j] = &up
			}
		}
		s.AddBatchPrepared(batch, authors, authors, tweetPreps, userPreps)
	}
}

// Planted ids sit far above anything the simulated world hands out.
const (
	plantedTweetBase   socialnet.TweetID   = 1 << 40
	plantedAccountBase socialnet.AccountID = 1 << 30
	plantedCampaign                        = 300
)

// planted is where adversarialCorpus put its structures: indices into the
// planted id ranges.
type planted struct {
	campaign         []socialnet.TweetID // one near-duplicate campaign, 300 strong
	chainA, chainB   socialnet.TweetID   // A~B and B~C clear the threshold,
	chainC           socialnet.TweetID   // A~C does not
	early, late      socialnet.TweetID   // near-duplicates 30 h apart
	lateTwin         socialnet.TweetID   // near-duplicate of both, beside late
	campaignAccounts []socialnet.AccountID
}

// adversarialCorpus is collectCorpus's stream with the cases a shortcut in
// the near-duplicate kernel would get wrong spread through it: a campaign of
// 300 tweets by 300 accounts with near-duplicate descriptions (every later
// member meets a set the union-find has already built), a transitive chain
// A~B~C whose ends are not similar, and a near-duplicate pair further apart
// than the time window. The first author of each structure is suspended, so
// a partition that differs shows in the labels too.
func adversarialCorpus(t testing.TB) (*Corpus, *socialnet.World, planted) {
	t.Helper()
	c, w := collectCorpus(t, 8)
	cfg := DefaultConfig()
	scheme := newLSHScheme(cfg.Seed + 1)
	sim := func(a, b string) float64 {
		sign := func(s string) minhash.Signature {
			return scheme.SignText(normalizedKey(&socialnet.Tweet{Text: s}), shingleWidth)
		}
		return minhash.Similarity(sign(a), sign(b))
	}

	var pl planted
	var extra []*socialnet.Tweet
	add := func(text string, at time.Time, suspended bool, desc string) socialnet.TweetID {
		n := len(extra)
		id, author := plantedTweetBase+socialnet.TweetID(n), plantedAccountBase+socialnet.AccountID(n)
		extra = append(extra, &socialnet.Tweet{ID: id, AuthorID: author, Text: text, CreatedAt: at, Spam: true})
		c.Users[author] = &socialnet.Account{ID: author, ScreenName: fmt.Sprintf("planted%d", n),
			Description: desc, Suspended: suspended, DefaultProfileImage: true, CreatedAt: simclock.Epoch}
		return id
	}

	const body = "fresh roasted coffee beans delivered weekly straight from growers across three continents order yours"
	for i := 0; i < plantedCampaign; i++ {
		at := simclock.Epoch.Add(time.Duration(i) * time.Minute)
		desc := fmt.Sprintf("small batch coffee roasters shipping worldwide since nineteen ninety branch %d", i)
		pl.campaign = append(pl.campaign, add(fmt.Sprintf("%s batch%d", body, i), at, i == 0, desc))
		pl.campaignAccounts = append(pl.campaignAccounts, plantedAccountBase+socialnet.AccountID(i))
	}

	// The chain: B rewrites the tail of A, C the head of B. Which filler
	// words land the three estimates on the right sides of the threshold
	// depends on the scheme, so search a fixed list for the first that do.
	words := strings.Fields("violet amber cobalt walnut silver maple copper willow garnet cedar indigo birch")
	middle := "telescope evenings observing distant galaxies nebulae clusters through backyard equipment during winter"
	var chain [3]string
	for i := 0; chain[0] == "" && i+3 < len(words); i++ {
		a := words[i] + " " + words[i+1] + " " + middle + " " + words[i+2] + " " + words[i+3]
		b := words[i] + " " + words[i+1] + " " + middle + " quartz marble"
		cc := "granite pebble " + middle + " quartz marble"
		if sim(a, b) >= cfg.TweetSimilarity && sim(b, cc) >= cfg.TweetSimilarity && sim(a, cc) < cfg.TweetSimilarity {
			chain = [3]string{a, b, cc}
		}
	}
	if chain[0] == "" {
		t.Fatal("no transitive chain A~B~C with A≁C among the candidate texts")
	}
	at := simclock.Epoch.Add(6 * time.Hour)
	pl.chainA = add(chain[0], at, true, "")
	pl.chainB = add(chain[1], at.Add(time.Minute), false, "")
	pl.chainC = add(chain[2], at.Add(2*time.Minute), false, "")

	const far = "handmade ceramic mugs glazed in small studio kilns each piece signed by its potter"
	pl.early = add(far+" one", simclock.Epoch.Add(time.Hour), true, "")
	pl.late = add(far+" two", simclock.Epoch.Add(31*time.Hour), false, "")
	pl.lateTwin = add(far+" three", simclock.Epoch.Add(32*time.Hour), false, "")

	// Spread the planted tweets through the stream, so that any prefix of
	// it (a mid-stream snapshot, a restore) cuts the campaign in two.
	organic := c.Tweets
	step := len(organic)/len(extra) + 1
	c.Tweets = make([]*socialnet.Tweet, 0, len(organic)+len(extra))
	for i, tw := range organic {
		c.Tweets = append(c.Tweets, tw)
		if i%step == 0 && len(extra) > 0 {
			c.Tweets = append(c.Tweets, extra[0])
			extra = extra[1:]
		}
	}
	c.Tweets = append(c.Tweets, extra...)
	return c, w, pl
}

// requireStoreMatchesBatch fails unless st, fed corpus, holds the batch
// oracle's near-duplicate groups — same members, same order — and labels
// the stream exactly as the oracle's Run does.
func requireStoreMatchesBatch(t *testing.T, st *Store, cfg Config, corpus *Corpus, w *socialnet.World) {
	t.Helper()
	p := newPipeline(cfg)
	if want, got := p.clusterTweets(corpus, p.tweetNorms(corpus)), st.tweetGroupsLocked(); !reflect.DeepEqual(want, got) {
		t.Fatalf("tweet groups diverged from the batch oracle: %d groups, want %d", len(got), len(want))
	}
	if want, got := p.clusterByDescription(corpus, corpusUserIDs(corpus)), st.descGroupsLocked(); !reflect.DeepEqual(want, got) {
		t.Fatalf("description groups diverged from the batch oracle: %d groups, want %d", len(got), len(want))
	}
	want := p.Run(corpus, NewNoisyOracle(w, 0.02, 7))
	got := st.Snapshot(NewNoisyOracle(w, 0.02, 7))
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("incremental snapshot diverged from batch oracle:\n"+
			"batch: spams=%d spammers=%d ham=%d benign=%d checks=%d\n"+
			"store: spams=%d spammers=%d ham=%d benign=%d checks=%d",
			len(want.SpamTweets), len(want.Spammers), len(want.HamTweets),
			len(want.Benign), want.ManualChecks,
			len(got.SpamTweets), len(got.Spammers), len(got.HamTweets),
			len(got.Benign), got.ManualChecks)
	}
}

// TestStoreMatchesBatchOracle is the label store's correctness property: on
// the adversarial corpus, the incremental store — fed the stream one tweet
// at a time or micro-batched, through AddBatch or through a Prepper plus
// AddBatchPrepared, at several worker counts — must hold the near-duplicate
// groups of the full-batch oracle and produce a Snapshot deeply equal to
// its Run over the same data, so the three ingest routes are
// bit-identical to each other.
func TestStoreMatchesBatchOracle(t *testing.T) {
	corpus, w, pl := adversarialCorpus(t)
	for _, workers := range []int{1, 2, 8} {
		for _, batchSize := range []int{1, 7, 256} {
			t.Run(fmt.Sprintf("workers=%d/batch=%d", workers, batchSize), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Workers = workers
				routes := []*Prepper{nil}
				if workers == 1 {
					// The prepared route never touches the worker pool.
					routes = append(routes, NewPrepper(cfg))
				}
				for _, prepper := range routes {
					st := NewStore(cfg)
					feedStore(st, corpus, batchSize, prepper)
					requireStoreMatchesBatch(t, st, cfg, corpus, w)
				}
			})
		}
	}

	// The planted structures are what the oracle says they are.
	st := NewStore(DefaultConfig())
	feedStore(st, corpus, 64, nil)
	groupOf := make(map[socialnet.TweetID]int)
	groups := st.tweetGroupsLocked()
	for g, group := range groups {
		for _, tw := range group {
			groupOf[tw.ID] = g + 1
		}
	}
	if g := groupOf[pl.campaign[0]]; g == 0 || len(groups[g-1]) != plantedCampaign {
		t.Fatalf("the planted campaign is not one group of %d", plantedCampaign)
	}
	for _, id := range pl.campaign {
		if groupOf[id] != groupOf[pl.campaign[0]] {
			t.Fatalf("campaign tweet %d left the campaign's group", id)
		}
	}
	if a := groupOf[pl.chainA]; a == 0 || a != groupOf[pl.chainB] || a != groupOf[pl.chainC] {
		t.Fatalf("chain A~B~C split: groups %d/%d/%d", a, groupOf[pl.chainB], groupOf[pl.chainC])
	}
	if groupOf[pl.early] != 0 {
		t.Fatal("a tweet 30 h before its near-duplicates shares a group with them")
	}
	if g := groupOf[pl.late]; g == 0 || g != groupOf[pl.lateTwin] {
		t.Fatal("near-duplicates an hour apart are not grouped")
	}
	found := false
	for _, group := range st.descGroupsLocked() {
		if group[0] == pl.campaignAccounts[0] {
			found = true
			if !reflect.DeepEqual(group, pl.campaignAccounts) {
				t.Fatalf("description campaign has %d members, want %d in order", len(group), plantedCampaign)
			}
		}
	}
	if !found {
		t.Fatal("no description group starts at the planted campaign's first account")
	}
	r := st.Snapshot(nil)
	for _, id := range []socialnet.TweetID{pl.campaign[plantedCampaign-1], pl.chainC} {
		if r.SpamTweets[id] != MethodClustering {
			t.Fatalf("planted tweet %d labeled %v, want clustering", id, r.SpamTweets[id])
		}
	}
	if _, ok := r.SpamTweets[pl.late]; ok {
		t.Fatal("a label crossed the near-duplicate time window")
	}
}

// TestStoreRecomputesMalformedPreps: a prep whose signature has the wrong
// number of words (proc-mode preps cross a process boundary) is recomputed,
// so the store's indices, its labels and its next checkpoint are those of a
// store that was handed good preps.
func TestStoreRecomputesMalformedPreps(t *testing.T) {
	corpus, w := collectCorpus(t, 4)
	cfg := DefaultConfig()
	prepper := NewPrepper(cfg)
	good, bad := NewStore(cfg), NewStore(cfg)
	feedStore(good, corpus, 16, nil)
	for i, tw := range corpus.Tweets {
		author := corpus.Users[tw.AuthorID]
		tp, up := prepper.PrepTweet(tw), prepper.PrepUser(author)
		switch i % 3 {
		case 0:
			tp.Sig, up.DescSig = tp.Sig[:len(tp.Sig)/2], append(up.DescSig, 1)
		case 1:
			tp.Sig, up.DescSig = minhash.Signature{}, minhash.Signature{7}
		}
		bad.AddBatchPrepared([]*socialnet.Tweet{tw}, []*socialnet.Account{author},
			[]*socialnet.Account{author}, []TweetPrep{tp}, []*UserPrep{&up})
	}
	if want, got := good.Snapshot(NewNoisyOracle(w, 0.02, 7)), bad.Snapshot(NewNoisyOracle(w, 0.02, 7)); !reflect.DeepEqual(want, got) {
		t.Fatal("malformed preps changed the labels")
	}
	var buf bytes.Buffer
	if err := bad.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := NewStore(cfg).ReadSnapshot(&buf, nil); err != nil {
		t.Fatalf("checkpoint of a store fed malformed preps is refused: %v", err)
	}
}

// TestStoreSnapshotIsRepeatable takes a mid-stream snapshot, keeps
// streaming, and requires (a) the mid-stream snapshot to equal the batch
// oracle over the prefix and (b) the final snapshot to equal the batch
// oracle over the full stream — the mid-stream read must not perturb the
// indices.
func TestStoreSnapshotIsRepeatable(t *testing.T) {
	corpus, w := collectCorpus(t, 8)
	half := len(corpus.Tweets) / 2
	prefix := NewCorpus(corpus.Tweets[:half], func(id socialnet.AccountID) *socialnet.Account {
		return corpus.Users[id]
	})

	st := NewStore(DefaultConfig())
	feedStore(st, prefix, 13, nil)
	gotHalf := st.Snapshot(NewNoisyOracle(w, 0.02, 7))
	wantHalf := newPipeline(DefaultConfig()).Run(prefix, NewNoisyOracle(w, 0.02, 7))
	if !reflect.DeepEqual(wantHalf, gotHalf) {
		t.Fatal("mid-stream snapshot diverged from the prefix batch oracle")
	}

	rest := NewCorpus(corpus.Tweets[half:], func(id socialnet.AccountID) *socialnet.Account {
		return corpus.Users[id]
	})
	feedStore(st, rest, 13, nil)
	got := st.Snapshot(NewNoisyOracle(w, 0.02, 7))
	want := newPipeline(DefaultConfig()).Run(corpus, NewNoisyOracle(w, 0.02, 7))
	if !reflect.DeepEqual(want, got) {
		t.Fatal("post-resume snapshot diverged from the full batch oracle")
	}
}

// TestStoreProvisionalLabels sanity-checks the stream-time estimate: a
// suspended author and a malicious-URL tweet are provisional spam, a
// benign short tweet is not.
func TestStoreProvisionalLabels(t *testing.T) {
	st := NewStore(DefaultConfig())
	benign := &socialnet.Account{ID: 1, ScreenName: "alice", Description: "hello"}
	suspended := &socialnet.Account{ID: 2, ScreenName: "eve", Suspended: true}

	if st.Add(&socialnet.Tweet{ID: 1, AuthorID: 1, Text: "lunch was nice"}, benign, benign) {
		t.Fatal("benign tweet flagged provisional spam")
	}
	if !st.Add(&socialnet.Tweet{ID: 2, AuthorID: 2, Text: "hi"}, suspended, suspended) {
		t.Fatal("suspended author not flagged")
	}
	mal := &socialnet.Tweet{ID: 3, AuthorID: 1,
		Text: "click " + socialnet.MaliciousDomains[0] + "/win now"}
	if !st.Add(mal, benign, benign) {
		t.Fatal("malicious URL not flagged")
	}
	tweets, users := st.Len()
	if tweets != 3 || users != 2 {
		t.Fatalf("Len = %d/%d, want 3/2", tweets, users)
	}
}

// TestStoreNilAuthor checks lookup-miss tolerance: tweets whose author
// cannot be resolved still join the tweet indices, like NewCorpus skipping
// nil profiles.
func TestStoreNilAuthor(t *testing.T) {
	st := NewStore(DefaultConfig())
	st.Add(&socialnet.Tweet{ID: 1, AuthorID: 99,
		Text: "some sufficiently long tweet text body"}, nil, nil)
	tweets, users := st.Len()
	if tweets != 1 || users != 0 {
		t.Fatalf("Len = %d/%d, want 1/0", tweets, users)
	}
	r := st.Snapshot(nil)
	if r == nil {
		t.Fatal("nil result")
	}
}

// preparedBatch is one AddBatchPrepared call's arguments.
type preparedBatch struct {
	tweets     []*socialnet.Tweet
	authors    []*socialnet.Account
	tweetPreps []TweetPrep
	userPreps  []*UserPrep
}

// prepareBatches cuts the corpus stream into micro-batches of size with
// every prep computed, as the extract stage hands them to the label stage.
func prepareBatches(c *Corpus, prepper *Prepper, size int) []preparedBatch {
	var batches []preparedBatch
	seen := make(map[socialnet.AccountID]bool)
	for i := 0; i < len(c.Tweets); i += size {
		b := preparedBatch{tweets: c.Tweets[i:min(i+size, len(c.Tweets))]}
		for _, tw := range b.tweets {
			author := c.Users[tw.AuthorID]
			b.authors = append(b.authors, author)
			b.tweetPreps = append(b.tweetPreps, prepper.PrepTweet(tw))
			var up *UserPrep
			if author != nil && !seen[author.ID] {
				seen[author.ID] = true
				p := prepper.PrepUser(author)
				up = &p
			}
			b.userPreps = append(b.userPreps, up)
		}
		batches = append(batches, b)
	}
	return batches
}

func (b preparedBatch) addTo(st *Store) {
	st.AddBatchPrepared(b.tweets, b.authors, b.authors, b.tweetPreps, b.userPreps)
}

// maxAddAllocsPerTweet bounds the label stage's share of allocs_per_tweet:
// the result slice and first-appearance bookkeeping of a 16-capture batch,
// one candidate list per probe, and the amortized growth of the stream
// mirror, the cluster maps and the two banding indices. The string-keyed
// index spent 36 per tweet on band keys and seen-sets alone.
const maxAddAllocsPerTweet = 6

func TestStoreAddBatchPreparedAllocs(t *testing.T) {
	corpus, _ := collectCorpus(t, 4)
	cfg := DefaultConfig()
	batches := prepareBatches(corpus, NewPrepper(cfg), 16)
	allocs := testing.AllocsPerRun(3, func() {
		st := NewStore(cfg)
		for _, b := range batches {
			b.addTo(st)
		}
	})
	if perTweet := allocs / float64(len(corpus.Tweets)); perTweet > maxAddAllocsPerTweet {
		t.Fatalf("AddBatchPrepared allocates %.1f times per tweet, want at most %d", perTweet, maxAddAllocsPerTweet)
	} else {
		t.Logf("AddBatchPrepared: %.2f allocs per tweet over %d tweets", perTweet, len(corpus.Tweets))
	}
}

// BenchmarkStoreAddBatch is the label stage alone: a small world's mention
// stream through AddBatchPrepared in the stream pipeline's 16-capture
// batches, preps computed beforehand.
func BenchmarkStoreAddBatch(b *testing.B) {
	corpus, _ := collectCorpus(b, 8)
	cfg := DefaultConfig()
	batches := prepareBatches(corpus, NewPrepper(cfg), 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := NewStore(cfg)
		for _, batch := range batches {
			batch.addTo(st)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(corpus.Tweets)), "ns/tweet")
}

// BenchmarkLabelCorpus labels one collected corpus the way every
// production caller does — one AddBatch into a fresh Store, then Snapshot —
// and reports the from-scratch oracle's time over the Store's as
// speedup-vs-reference, with both labelers' allocations per tweet.
func BenchmarkLabelCorpus(b *testing.B) {
	corpus, w := collectCorpus(b, 8)
	cfg := DefaultConfig()
	oracle := NewNoisyOracle(w, 0.02, 7)
	perTweet := func(before, after *runtime.MemStats, runs int) float64 {
		return float64(after.Mallocs-before.Mallocs) / float64(runs*len(corpus.Tweets))
	}
	var before, after runtime.MemStats
	refOnce := func() time.Duration {
		runtime.ReadMemStats(&before)
		start := time.Now()
		newPipeline(cfg).Run(corpus, oracle)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		return elapsed
	}
	refOnce() // warm caches
	const refRuns = 3
	var ref time.Duration
	var refAllocs float64
	for i := 0; i < refRuns; i++ {
		ref += refOnce() / refRuns
		refAllocs += perTweet(&before, &after, refRuns)
	}

	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := NewStore(cfg)
		feedStore(st, corpus, len(corpus.Tweets), nil)
		st.Snapshot(oracle)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if per := b.Elapsed() / time.Duration(b.N); per > 0 {
		b.ReportMetric(ref.Seconds()/per.Seconds(), "speedup-vs-reference")
	}
	b.ReportMetric(perTweet(&before, &after, b.N), "allocs/tweet")
	b.ReportMetric(refAllocs, "ref-allocs/tweet")
}
