// Package label implements the paper's ground-truth labeling pipeline
// (§IV-B): suspended-account checking, clustering-based labeling (profile
// images via dHash, screen names via Σ-Seq character classes, user
// descriptions and tweet contents via MinHash), rule-based labeling, and a
// final manual-checking pass.
//
// The gated oracle of the real pipeline — Twitter's suspension list plus
// human annotators — is replaced by a simulated Oracle that reveals
// generative ground truth with a configurable error rate and budget
// (DESIGN.md §2). The algorithms in between are the paper's, unchanged.
//
// Store is the one labeler: every caller feeds it the stream (AddBatch, or
// AddBatchPrepared behind shard workers) and reads labels with Snapshot.
package label

import (
	"math/rand"
	"strconv"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/imagehash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/minhash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// Method identifies which pipeline stage produced a label (the rows of the
// paper's Table III).
type Method int

// Labeling methods.
const (
	MethodSuspended Method = iota + 1
	MethodClustering
	MethodRule
	MethodManual
)

// Methods lists the stages in pipeline order.
var Methods = []Method{MethodSuspended, MethodClustering, MethodRule, MethodManual}

func (m Method) String() string {
	switch m {
	case MethodSuspended:
		return "Suspended"
	case MethodClustering:
		return "Clustering"
	case MethodRule:
		return "Rule Based"
	case MethodManual:
		return "Human Labeling"
	default:
		return "unknown"
	}
}

// Corpus is the monitored data handed to the pipeline: collected tweets and
// the profiles of every involved user.
type Corpus struct {
	Tweets []*socialnet.Tweet
	Users  map[socialnet.AccountID]*socialnet.Account
}

// NewCorpus builds a corpus from tweets, resolving user profiles through
// lookup (nil profiles are skipped).
func NewCorpus(tweets []*socialnet.Tweet, lookup func(socialnet.AccountID) *socialnet.Account) *Corpus {
	c := &Corpus{
		Tweets: tweets,
		Users:  make(map[socialnet.AccountID]*socialnet.Account),
	}
	for _, t := range tweets {
		if _, ok := c.Users[t.AuthorID]; !ok {
			if a := lookup(t.AuthorID); a != nil {
				c.Users[t.AuthorID] = a
			}
		}
	}
	return c
}

// Oracle answers ground-truth queries during the manual-checking stage.
type Oracle interface {
	// TweetIsSpam reveals whether a tweet is spam.
	TweetIsSpam(t *socialnet.Tweet) bool
	// UserIsSpammer reveals whether an account is a spammer.
	UserIsSpammer(id socialnet.AccountID) bool
}

// Result holds the pipeline output: per-tweet and per-user labels with the
// method that produced them.
type Result struct {
	// SpamTweets and HamTweets map labeled tweets to their method.
	// Unlabeled tweets are treated as non-spam in the final dataset, as
	// in the paper.
	SpamTweets map[socialnet.TweetID]Method
	HamTweets  map[socialnet.TweetID]Method

	// Spammers and Benign map labeled users to their method.
	Spammers map[socialnet.AccountID]Method
	Benign   map[socialnet.AccountID]Method

	// ManualChecks counts oracle queries spent by the manual stage.
	ManualChecks int
}

// MethodCount is one Table III row: labels attributed to a method.
type MethodCount struct {
	Method   Method
	Spams    int
	Spammers int
}

// Counts aggregates Table III rows in pipeline order.
func (r *Result) Counts() []MethodCount {
	counts := make([]MethodCount, len(Methods))
	for i, m := range Methods {
		counts[i].Method = m
	}
	idx := func(m Method) int { return int(m) - 1 }
	for _, m := range r.SpamTweets {
		counts[idx(m)].Spams++
	}
	for _, m := range r.Spammers {
		counts[idx(m)].Spammers++
	}
	return counts
}

// TotalSpams returns the number of tweets labeled spam.
func (r *Result) TotalSpams() int { return len(r.SpamTweets) }

// TotalSpammers returns the number of users labeled spammer.
func (r *Result) TotalSpammers() int { return len(r.Spammers) }

// IsSpam reports the final label of a tweet (unlabeled ⇒ non-spam).
func (r *Result) IsSpam(id socialnet.TweetID) bool {
	_, ok := r.SpamTweets[id]
	return ok
}

// Config parameterizes the pipeline.
type Config struct {
	// Seed drives the manual stage's sampling.
	Seed int64

	// ImageHammingThreshold groups profile images (default 5, paper).
	ImageHammingThreshold int

	// NameGroupMin is the minimum Σ-Seq group size kept (default 5, paper).
	NameGroupMin int

	// DescSimilarity is the MinHash similarity above which two user
	// descriptions are considered identical (default 0.85).
	DescSimilarity float64

	// TweetSimilarity is the near-duplicate threshold for tweet contents
	// (default 0.7).
	TweetSimilarity float64

	// TweetWindow is the near-duplicate time window (default 24h, paper).
	TweetWindow time.Duration

	// MinTweetLen filters short tweets from duplicate checking
	// (default 20 chars, paper).
	MinTweetLen int

	// RepeatThreshold is the rule-based repetition cutoff: a normalized
	// text occurring at least this many times is repetitive (default 3).
	RepeatThreshold int

	// ManualBudget bounds oracle queries spent labeling *unlabeled*
	// tweets (the verification of already-labeled data is additional).
	// Zero means a tenth of the corpus.
	ManualBudget int

	// Workers bounds the store's worker pool (prep fan-out, concurrent
	// user and tweet joins); 0 resolves the process default (PH_WORKERS
	// or GOMAXPROCS). Labels are bit-identical at any worker count.
	Workers int

	// Metrics receives the clustering pass timings and the probe work
	// counters; nil means metrics.Default().
	Metrics *metrics.Registry

	// Tracer records one trace per Snapshot with a span per labeling
	// pass; nil means trace.Default().
	Tracer *trace.Tracer
}

// DefaultConfig returns the paper's thresholds.
func DefaultConfig() Config {
	return Config{
		Seed:                  1,
		ImageHammingThreshold: imagehash.DefaultThreshold,
		NameGroupMin:          5,
		DescSimilarity:        0.85,
		TweetSimilarity:       0.75,
		TweetWindow:           24 * time.Hour,
		MinTweetLen:           20,
		RepeatThreshold:       3,
	}
}

// withDefaults fills zero-value fields from DefaultConfig. NewStore and
// NewPrepper share it so the store and the shard workers' preps always
// agree on thresholds.
func (cfg Config) withDefaults() Config {
	def := DefaultConfig()
	if cfg.ImageHammingThreshold <= 0 {
		cfg.ImageHammingThreshold = def.ImageHammingThreshold
	}
	if cfg.NameGroupMin <= 0 {
		cfg.NameGroupMin = def.NameGroupMin
	}
	if cfg.DescSimilarity <= 0 {
		cfg.DescSimilarity = def.DescSimilarity
	}
	if cfg.TweetSimilarity <= 0 {
		cfg.TweetSimilarity = def.TweetSimilarity
	}
	if cfg.TweetWindow <= 0 {
		cfg.TweetWindow = def.TweetWindow
	}
	if cfg.MinTweetLen <= 0 {
		cfg.MinTweetLen = def.MinTweetLen
	}
	if cfg.RepeatThreshold <= 0 {
		cfg.RepeatThreshold = def.RepeatThreshold
	}
	return cfg
}

// pipeline runs the labeling passes that read a finished corpus and its
// cluster groups: suspended, propagation, rules, manual. Store.Snapshot
// builds a fresh one per call, so the manual stage's rng always starts
// from cfg.Seed.
type pipeline struct {
	cfg    Config
	rng    *rand.Rand
	tracer *trace.Tracer
	// tr is the trace of the run in progress (and, afterwards, of the
	// most recent run); the cluster passes attach their spans to it.
	tr *trace.Trace
}

// newPipeline creates a pipeline with cfg (zero-value fields fall back to
// DefaultConfig values).
func newPipeline(cfg Config) *pipeline {
	cfg = cfg.withDefaults()
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = trace.Default()
	}
	return &pipeline{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		tracer: tracer,
	}
}

// run is the stage skeleton: suspended → cluster propagation → rules →
// manual, one trace span per pass. cluster supplies the user and tweet
// groups — Store.Snapshot materializes them from its live indices, the
// test oracle reclusters the corpus from scratch, and both produce
// identical group lists (DESIGN.md §12). norms[i] is
// normalizedKey(c.Tweets[i]), which the rules pass reads.
func (p *pipeline) run(c *Corpus, norms []string, oracle Oracle, cluster func() ([][]socialnet.AccountID, [][]*socialnet.Tweet)) *Result {
	r := &Result{
		SpamTweets: make(map[socialnet.TweetID]Method),
		HamTweets:  make(map[socialnet.TweetID]Method),
		Spammers:   make(map[socialnet.AccountID]Method),
		Benign:     make(map[socialnet.AccountID]Method),
	}
	p.tr = p.tracer.Start("label")
	if p.tr != nil {
		p.tr.SetAttr("tweets", strconv.Itoa(len(c.Tweets)))
		p.tr.SetAttr("users", strconv.Itoa(len(c.Users)))
	}
	defer trace.SetActive(p.tr)()
	pass := func(stage string, fn func()) {
		sp := p.tr.StartSpan(stage)
		fn()
		sp.End()
	}
	pass("label_suspended", func() { p.labelSuspended(c, r) })
	userGroups, tweetGroups := cluster()
	p.propagate(r, userGroups, tweetGroups)
	pass("label_rules", func() { p.labelRules(c, r, norms) })
	pass("label_manual", func() { p.manualCheck(c, r, oracle) })
	p.tr.Finish()
	return r
}

// labelSuspended marks platform-suspended users as spammers and their
// tweets as spam. Suspensions are a noisy oracle (false suspensions exist);
// the manual stage cleans them later.
func (p *pipeline) labelSuspended(c *Corpus, r *Result) {
	for id, u := range c.Users {
		if u.Suspended {
			r.Spammers[id] = MethodSuspended
		}
	}
	for _, t := range c.Tweets {
		if _, ok := r.Spammers[t.AuthorID]; ok {
			r.SpamTweets[t.ID] = MethodSuspended
		}
	}
}

// propagate spreads spammer labels through the user and tweet groups
// (paper §IV-B, clustering method) to a fixpoint, so the result is
// independent of group order: tweet groups feed user groups and back until
// nothing changes.
func (p *pipeline) propagate(r *Result, userGroups [][]socialnet.AccountID, tweetGroups [][]*socialnet.Tweet) {
	for {
		changed := false
		for _, group := range userGroups {
			spammy := false
			for _, id := range group {
				if _, ok := r.Spammers[id]; ok {
					spammy = true
					break
				}
			}
			if !spammy {
				continue
			}
			for _, id := range group {
				if _, ok := r.Spammers[id]; !ok {
					r.Spammers[id] = MethodClustering
					changed = true
				}
			}
		}
		for _, group := range tweetGroups {
			spammy := false
			for _, t := range group {
				if _, isSpam := r.SpamTweets[t.ID]; isSpam {
					spammy = true
					break
				}
				if _, isSpammer := r.Spammers[t.AuthorID]; isSpammer {
					spammy = true
					break
				}
			}
			if !spammy {
				continue
			}
			for _, t := range group {
				if _, ok := r.SpamTweets[t.ID]; !ok {
					r.SpamTweets[t.ID] = MethodClustering
					changed = true
				}
				if _, ok := r.Spammers[t.AuthorID]; !ok {
					r.Spammers[t.AuthorID] = MethodClustering
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

// splitByWindow enforces the near-duplicate time window: it splits a
// candidate group into time buckets — merged in bucket first-appearance
// order so the group list is deterministic — and keeps buckets with at
// least two members.
func splitByWindow(members []*socialnet.Tweet, window time.Duration) [][]*socialnet.Tweet {
	byWindow := make(map[int64][]*socialnet.Tweet)
	var bucketOrder []int64
	for _, t := range members {
		bucket := t.CreatedAt.UnixNano() / int64(window)
		if len(byWindow[bucket]) == 0 {
			bucketOrder = append(bucketOrder, bucket)
		}
		byWindow[bucket] = append(byWindow[bucket], t)
	}
	var groups [][]*socialnet.Tweet
	for _, bucket := range bucketOrder {
		if tg := byWindow[bucket]; len(tg) >= 2 {
			groups = append(groups, tg)
		}
	}
	return groups
}

// lshBands/lshRows shape the MinHash banding index: 16 bands × 4 rows over
// a 64-permutation signature. The Store and its from-scratch test oracle
// must share them — the banding candidate sets define which pairs are even
// considered for similarity confirmation. shingleWidth is the paper's
// tri-gram shingling, shared for the same reason.
const (
	lshBands     = 16
	lshRows      = 4
	shingleWidth = 3
)

// newLSHScheme builds the seeded 64-permutation MinHash scheme texts are
// signed with.
func newLSHScheme(seed int64) *minhash.Scheme {
	return minhash.NewScheme(lshBands*lshRows, rand.New(rand.NewSource(seed)))
}

// classCount counts the distinct character classes in a Σ-Seq key
// (run-length digits excluded).
func classCount(seq string) int {
	seen := make(map[rune]struct{}, 4)
	for _, r := range seq {
		if r >= '0' && r <= '9' {
			continue
		}
		seen[r] = struct{}{}
	}
	return len(seen)
}
