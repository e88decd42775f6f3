package label

import (
	"sort"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/imagehash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/minhash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil/texttest"
)

// This file is the Store's reference: the from-scratch batch clusterer
// that reclusters a finished corpus on every Run. Production labels only
// through the Store; TestStoreMatchesBatchOracle holds the Store's groups
// and Snapshot deeply equal to this oracle's, and the label-quality tests
// run both.

// Run labels the corpus: suspended accounts, clustering from scratch,
// rules, then manual checking against the oracle.
func (p *pipeline) Run(c *Corpus, oracle Oracle) *Result {
	norms := p.tweetNorms(c)
	return p.run(c, norms, oracle, func() ([][]socialnet.AccountID, [][]*socialnet.Tweet) {
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

// tweetNorms returns normalizedKey of every corpus tweet, in corpus order.
func (p *pipeline) tweetNorms(c *Corpus) []string {
	return parallel.Map(len(c.Tweets), p.cfg.Workers, func(i int) string {
		return normalizedKey(c.Tweets[i])
	})
}

// corpusUserIDs returns the corpus users in first-appearance (stream)
// order: the order in which each author's first tweet occurs in
// c.Tweets. This ordering is deterministic regardless of map iteration
// order, and — critically — it is the insertion order the label store
// sees when it is fed the same stream, however batched, so
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
func (p *pipeline) clusterUsers(c *Corpus) [][]socialnet.AccountID {
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
func (p *pipeline) clusterByImage(c *Corpus, ids []socialnet.AccountID) [][]socialnet.AccountID {
	defer p.tr.StartSpan("label_cluster_image").End()
	imgGrouper := imagehash.NewGrouper(p.cfg.ImageHammingThreshold)
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
func (p *pipeline) clusterByName(c *Corpus, ids []socialnet.AccountID) [][]socialnet.AccountID {
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
func (p *pipeline) clusterByDescription(c *Corpus, ids []socialnet.AccountID) [][]socialnet.AccountID {
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
func (p *pipeline) clusterTweets(c *Corpus, norms []string) [][]*socialnet.Tweet {
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

// clusterTexts groups near-duplicate texts via MinHash banding + union-find
// confirmation, returning groups of indices into texts.
//
// The expensive passes — signing, and the pairwise similarity confirmation
// of banding candidates — fan out over the worker pool. The shared-band
// pairs (j, i) with j < i are enumerated once up front, which is exactly
// the pair set of an incremental probe-then-insert loop (Store's join,
// which skips some of those pairs as redundant), and the union-find merge
// itself runs sequentially in index order, so the grouping is
// bit-identical at any worker count.
func clusterTexts(texts []string, simThreshold float64, seed int64, workers int) [][]int {
	if len(texts) == 0 {
		return nil
	}
	scheme := newLSHScheme(seed)
	sigs := parallel.Map(len(texts), workers, func(i int) minhash.Signature {
		return scheme.SignText(texts[i], shingleWidth)
	})

	// Pairwise confirmation: for each text, the texts below it that share
	// a band with it and clear the similarity threshold, enumerated apart
	// from the index the Store probes.
	neighbours := texttest.BandNeighbours(sigs, lshBands, lshRows)
	matches := parallel.Map(len(texts), workers, func(i int) []int {
		var ms []int
		for _, cand := range neighbours[i] {
			if texttest.Similarity(sigs[i], sigs[cand]) >= simThreshold {
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
