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
package label

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/imagehash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/minhash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil"
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

	// Workers bounds the clustering stage's worker pool; 0 resolves the
	// process default (PH_WORKERS or GOMAXPROCS). Labels are
	// bit-identical at any worker count.
	Workers int

	// Metrics receives the pipeline's pass timings; nil means
	// metrics.Default().
	Metrics *metrics.Registry

	// Tracer records one trace per Run with a span per labeling pass;
	// nil means trace.Default().
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

// Pipeline runs the four-stage labeling process.
type Pipeline struct {
	cfg    Config
	rng    *rand.Rand
	ins    *pipelineInstruments
	tracer *trace.Tracer
	// tr is the trace of the Run in progress (and, afterwards, of the
	// most recent Run); the cluster passes attach their spans to it.
	tr *trace.Trace
}

// withDefaults fills zero-value fields from DefaultConfig. NewPipeline and
// NewStore share it so the batch oracle and the incremental store always
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

// NewPipeline creates a pipeline with cfg (zero-value fields fall back to
// DefaultConfig values).
func NewPipeline(cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = trace.Default()
	}
	return &Pipeline{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		ins:    newPipelineInstruments(cfg.Metrics),
		tracer: tracer,
	}
}

// LastTrace returns the trace of the most recent Run (nil when tracing is
// off). Callers adopt its pass spans into the capture traces that fed the
// corpus.
func (p *Pipeline) LastTrace() *trace.Trace { return p.tr }

// Run labels the corpus: suspended accounts, clustering, rules, then
// manual checking against the oracle.
func (p *Pipeline) Run(c *Corpus, oracle Oracle) *Result {
	return p.run(c, oracle, func(c *Corpus, norms []string) ([][]socialnet.AccountID, [][]*socialnet.Tweet) {
		// The user and tweet clusterings are independent of each other,
		// so they run concurrently; their deterministically ordered
		// output feeds the sequential propagation.
		var userGroups [][]socialnet.AccountID
		var tweetGroups [][]*socialnet.Tweet
		parallel.ForEach(2, p.cfg.Workers, func(i int) {
			if i == 0 {
				userGroups = p.clusterUsers(c)
			} else {
				tweetGroups = p.clusterTweets(c, norms)
			}
		})
		return userGroups, tweetGroups
	})
}

// run is the stage skeleton shared by the batch path (Run, which clusters
// the corpus from scratch) and the incremental store (Store.Snapshot,
// which materializes groups from its persistent indices): suspended →
// cluster propagation → rules → manual, one trace span per pass. Both
// paths produce identical Results on the same stream because the cluster
// callbacks produce identical group lists (see DESIGN.md §12). Each tweet's
// normalizedKey is computed here, once per pass, for the tweet clustering
// and the rules to share.
func (p *Pipeline) run(c *Corpus, oracle Oracle, cluster func(c *Corpus, norms []string) ([][]socialnet.AccountID, [][]*socialnet.Tweet)) *Result {
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
	norms := p.tweetNorms(c)
	userGroups, tweetGroups := cluster(c, norms)
	p.propagate(r, userGroups, tweetGroups)
	pass("label_rules", func() { p.labelRules(c, r, norms) })
	pass("label_manual", func() { p.manualCheck(c, r, oracle) })
	p.tr.Finish()
	return r
}

// tweetNorms returns normalizedKey of every corpus tweet, in corpus order.
func (p *Pipeline) tweetNorms(c *Corpus) []string {
	return parallel.Map(len(c.Tweets), p.cfg.Workers, func(i int) string {
		return normalizedKey(c.Tweets[i])
	})
}

// labelSuspended marks platform-suspended users as spammers and their
// tweets as spam. Suspensions are a noisy oracle (false suspensions exist);
// the manual stage cleans them later.
func (p *Pipeline) labelSuspended(c *Corpus, r *Result) {
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
func (p *Pipeline) propagate(r *Result, userGroups [][]socialnet.AccountID, tweetGroups [][]*socialnet.Tweet) {
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

// corpusUserIDs returns the corpus users in first-appearance (stream)
// order: the order in which each author's first tweet occurs in
// c.Tweets. This ordering is deterministic regardless of map iteration
// order, and — critically — it is the insertion order the incremental
// label store sees when it is fed the same stream one tweet at a time, so
// the order-sensitive image Grouper partitions identically on both paths.
// Users present in c.Users but absent from c.Tweets (hand-built corpora)
// follow in ascending id order.
func corpusUserIDs(c *Corpus) []socialnet.AccountID {
	ids := make([]socialnet.AccountID, 0, len(c.Users))
	seen := make(map[socialnet.AccountID]struct{}, len(c.Users))
	for _, t := range c.Tweets {
		if _, dup := seen[t.AuthorID]; dup {
			continue
		}
		seen[t.AuthorID] = struct{}{}
		if _, ok := c.Users[t.AuthorID]; ok {
			ids = append(ids, t.AuthorID)
		}
	}
	if len(ids) < len(c.Users) {
		rest := make([]socialnet.AccountID, 0, len(c.Users)-len(ids))
		for id := range c.Users {
			if _, ok := seen[id]; !ok {
				rest = append(rest, id)
			}
		}
		sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
		ids = append(ids, rest...)
	}
	return ids
}

// clusterUsers returns user groups from the three profile clusterings.
// The image, screen-name, and description passes are mutually independent
// and run concurrently; their groups concatenate in a fixed pass order so
// the result is identical at any worker count.
func (p *Pipeline) clusterUsers(c *Corpus) [][]socialnet.AccountID {
	ids := corpusUserIDs(c)
	passes := make([][][]socialnet.AccountID, 3)
	parallel.ForEach(len(passes), p.cfg.Workers, func(pass int) {
		switch pass {
		case 0:
			passes[pass] = p.clusterByImage(c, ids)
		case 1:
			passes[pass] = p.clusterByName(c, ids)
		case 2:
			passes[pass] = p.clusterByDescription(c, ids)
		}
	})
	var groups [][]socialnet.AccountID
	for _, pass := range passes {
		groups = append(groups, pass...)
	}
	return groups
}

// clusterByImage groups profile images via dHash + Hamming threshold.
func (p *Pipeline) clusterByImage(c *Corpus, ids []socialnet.AccountID) [][]socialnet.AccountID {
	defer p.ins.clusterSecs.With("image").ObserveDuration(time.Now())
	defer p.tr.StartSpan("label_cluster_image").End()
	imgGrouper := imagehash.NewGrouper(p.cfg.ImageHammingThreshold)
	imgGrouper.SetWorkers(p.cfg.Workers)
	imgGroups := make(map[int][]socialnet.AccountID)
	var imgOrder []int
	for _, id := range ids {
		u := c.Users[id]
		if u.DefaultProfileImage {
			continue // default eggs carry no campaign signal
		}
		g := imgGrouper.Add(u.ProfileImageHash)
		if len(imgGroups[g]) == 0 {
			imgOrder = append(imgOrder, g)
		}
		imgGroups[g] = append(imgGroups[g], id)
	}
	var groups [][]socialnet.AccountID
	for _, gi := range imgOrder {
		if g := imgGroups[gi]; len(g) >= 2 {
			groups = append(groups, g)
		}
	}
	return groups
}

// clusterByName groups screen-name Σ-Seq shapes with at least NameGroupMin
// members. Two hygiene rules keep the false-positive rate low (the paper's
// regex-learned patterns are similarly specific): a usable shape must mix
// at least two character classes, and a shape shared by a large fraction
// of the corpus carries no campaign signal.
func (p *Pipeline) clusterByName(c *Corpus, ids []socialnet.AccountID) [][]socialnet.AccountID {
	defer p.ins.clusterSecs.With("name").ObserveDuration(time.Now())
	defer p.tr.StartSpan("label_cluster_name").End()
	seqs := parallel.Map(len(ids), p.cfg.Workers, func(i int) string {
		return textutil.ClassSeqWithRunLengths(c.Users[ids[i]].ScreenName)
	})
	nameGroups := make(map[string][]socialnet.AccountID)
	var nameOrder []string
	for i, id := range ids {
		seq := seqs[i]
		if len(nameGroups[seq]) == 0 {
			nameOrder = append(nameOrder, seq)
		}
		nameGroups[seq] = append(nameGroups[seq], id)
	}
	maxNameGroup := len(c.Users) / 50
	if maxNameGroup < 2*p.cfg.NameGroupMin {
		maxNameGroup = 2 * p.cfg.NameGroupMin
	}
	var groups [][]socialnet.AccountID
	for _, seq := range nameOrder {
		g := nameGroups[seq]
		if len(g) < p.cfg.NameGroupMin || len(g) > maxNameGroup {
			continue
		}
		if classCount(seq) < 2 {
			continue
		}
		groups = append(groups, g)
	}
	return groups
}

// clusterByDescription groups near-duplicate descriptions via MinHash.
func (p *Pipeline) clusterByDescription(c *Corpus, ids []socialnet.AccountID) [][]socialnet.AccountID {
	defer p.ins.clusterSecs.With("description").ObserveDuration(time.Now())
	defer p.tr.StartSpan("label_cluster_description").End()
	norms := parallel.Map(len(ids), p.cfg.Workers, func(i int) string {
		return textutil.NormalizeDescription(c.Users[ids[i]].Description)
	})
	var descIDs []socialnet.AccountID
	var texts []string
	for i, id := range ids {
		if norms[i] == "" {
			continue
		}
		descIDs = append(descIDs, id)
		texts = append(texts, norms[i])
	}
	var groups [][]socialnet.AccountID
	for _, g := range clusterTexts(texts, p.cfg.DescSimilarity, p.cfg.Seed, p.cfg.Workers) {
		if len(g) < 2 {
			continue
		}
		group := make([]socialnet.AccountID, len(g))
		for i, idx := range g {
			group[i] = descIDs[idx]
		}
		groups = append(groups, group)
	}
	return groups
}

// clusterTweets returns near-duplicate tweet groups within the time window.
// norms[i] is normalizedKey(c.Tweets[i]).
func (p *Pipeline) clusterTweets(c *Corpus, norms []string) [][]*socialnet.Tweet {
	defer p.ins.clusterSecs.With("tweets").ObserveDuration(time.Now())
	defer p.tr.StartSpan("label_cluster_tweets").End()
	var pool []*socialnet.Tweet
	var texts []string
	for i, t := range c.Tweets {
		if len(norms[i]) < p.cfg.MinTweetLen {
			continue
		}
		pool = append(pool, t)
		texts = append(texts, norms[i])
	}
	var groups [][]*socialnet.Tweet
	for _, g := range clusterTexts(texts, p.cfg.TweetSimilarity, p.cfg.Seed+1, p.cfg.Workers) {
		if len(g) < 2 {
			continue
		}
		members := make([]*socialnet.Tweet, len(g))
		for i, idx := range g {
			members[i] = pool[idx]
		}
		groups = append(groups, splitByWindow(members, p.cfg.TweetWindow)...)
	}
	return groups
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
// a 64-permutation signature. clusterTexts (batch) and Store (incremental)
// must share them — the banding candidate sets define which pairs are even
// considered for similarity confirmation. shingleWidth is the paper's
// tri-gram shingling, shared for the same reason.
const (
	lshBands     = 16
	lshRows      = 4
	shingleWidth = 3
)

// newLSHScheme builds the seeded 64-permutation MinHash scheme both paths
// sign texts with.
func newLSHScheme(seed int64) *minhash.Scheme {
	return minhash.NewScheme(lshBands*lshRows, rand.New(rand.NewSource(seed)))
}

// clusterTexts groups near-duplicate texts via MinHash banding + union-find
// confirmation, returning groups of indices into texts.
//
// The expensive passes — signing, and the pairwise similarity confirmation
// of banding candidates — fan out over the worker pool. The banding index
// is built once up front; restricting each text's candidates to lower
// indices reproduces exactly the pair set of an incremental
// probe-then-insert loop (Store's join, which skips some of those pairs as
// redundant), and the union-find merge itself runs sequentially in index
// order, so the grouping is bit-identical at any worker count.
func clusterTexts(texts []string, simThreshold float64, seed int64, workers int) [][]int {
	if len(texts) == 0 {
		return nil
	}
	scheme := newLSHScheme(seed)
	sigs := parallel.Map(len(texts), workers, func(i int) minhash.Signature {
		return scheme.SignText(texts[i], shingleWidth)
	})

	index := minhash.NewIndex(lshBands, lshRows)
	for _, sig := range sigs {
		index.Add(sig)
	}

	// Pairwise confirmation: for each text, the banding candidates below
	// it that clear the similarity threshold. Candidates returns ids in
	// ascending order, which here is the order of texts, so the candidates
	// below i are a prefix. The probes only read the finished index.
	matches := parallel.Map(len(texts), workers, func(i int) []int {
		var ms []int
		for _, cand := range index.Candidates(sigs[i]) {
			if cand >= i {
				break
			}
			if minhash.Similarity(sigs[i], sigs[cand]) >= simThreshold {
				ms = append(ms, cand)
			}
		}
		return ms
	})

	parent := make([]int, len(texts))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for i, ms := range matches {
		for _, cand := range ms {
			union(i, cand)
		}
	}

	groupsByRoot := make(map[int][]int)
	var rootOrder []int
	for i := range texts {
		root := find(i)
		if len(groupsByRoot[root]) == 0 {
			rootOrder = append(rootOrder, root)
		}
		groupsByRoot[root] = append(groupsByRoot[root], i)
	}
	// Deterministic group order: first-appearance order of each root.
	groups := make([][]int, 0, len(groupsByRoot))
	for _, root := range rootOrder {
		groups = append(groups, groupsByRoot[root])
	}
	return groups
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

// stripMentions removes @name tokens so near-duplicate checking compares
// the spam payload, not the victim names.
func stripMentions(s string) string {
	fields := strings.Fields(s)
	out := fields[:0]
	for _, f := range fields {
		if strings.HasPrefix(f, "@") {
			continue
		}
		out = append(out, f)
	}
	return strings.Join(out, " ")
}
