package label

import (
	"fmt"
	"reflect"
	"testing"

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

// TestStoreMatchesBatchOracle is the tentpole's correctness property: on a
// seed corpus, the incremental store — fed the stream one tweet at a time
// or micro-batched, through AddBatch or through a Prepper plus
// AddBatchPrepared, at several worker counts — must produce a Snapshot
// deeply equal to the full-batch Pipeline.Run oracle over the same data,
// so the three ingest routes are bit-identical to each other.
func TestStoreMatchesBatchOracle(t *testing.T) {
	corpus, w := collectCorpus(t, 8)
	if len(corpus.Tweets) == 0 {
		t.Fatal("empty corpus")
	}
	for _, workers := range []int{1, 2, 8} {
		for _, batchSize := range []int{1, 7, 64} {
			t.Run(fmt.Sprintf("workers=%d/batch=%d", workers, batchSize), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Workers = workers
				want := NewPipeline(cfg).Run(corpus, NewNoisyOracle(w, 0.02, 7))

				routes := []*Prepper{nil}
				if workers == 1 {
					// The prepared route never touches the worker pool.
					routes = append(routes, NewPrepper(cfg))
				}
				for _, prepper := range routes {
					st := NewStore(cfg)
					feedStore(st, corpus, batchSize, prepper)
					got := st.Snapshot(NewNoisyOracle(w, 0.02, 7))

					if !reflect.DeepEqual(want, got) {
						t.Fatalf("incremental snapshot (prepared=%t) diverged from batch oracle:\n"+
							"batch: spams=%d spammers=%d ham=%d benign=%d checks=%d\n"+
							"store: spams=%d spammers=%d ham=%d benign=%d checks=%d",
							prepper != nil,
							len(want.SpamTweets), len(want.Spammers), len(want.HamTweets),
							len(want.Benign), want.ManualChecks,
							len(got.SpamTweets), len(got.Spammers), len(got.HamTweets),
							len(got.Benign), got.ManualChecks)
					}
				}
			})
		}
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
	wantHalf := NewPipeline(DefaultConfig()).Run(prefix, NewNoisyOracle(w, 0.02, 7))
	if !reflect.DeepEqual(wantHalf, gotHalf) {
		t.Fatal("mid-stream snapshot diverged from the prefix batch oracle")
	}

	rest := NewCorpus(corpus.Tweets[half:], func(id socialnet.AccountID) *socialnet.Account {
		return corpus.Users[id]
	})
	feedStore(st, rest, 13, nil)
	got := st.Snapshot(NewNoisyOracle(w, 0.02, 7))
	want := NewPipeline(DefaultConfig()).Run(corpus, NewNoisyOracle(w, 0.02, 7))
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
