package label

import (
	"sync"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/imagehash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/minhash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// Store is the labeler (DESIGN.md §12): every topology, the experiments
// runner and the examples label through it, streaming callers one
// micro-batch at a time and batch callers with one AddBatch of the finished
// corpus. It keeps the cluster indices alive — the image-dHash grouper, the
// Σ-Seq name classes, and the MinHash banding indices (plus union-find) for
// descriptions and near-duplicate tweets — so ingesting a capture costs
// ~O(cluster lookup): one grouper probe, one map insert, and two LSH band
// probes, instead of a full recluster. A probe's candidates are confirmed
// with minhash.Similarity only where the union-find has not already put
// them in the new item's set (see join): a union inside one set changes
// nothing, so the partition is the one all-pairs confirmation builds, and
// Snapshot reads nothing of the union-find but its partition.
//
// Snapshot materializes groups from the live indices and runs the
// propagation/rules/manual passes over them. Its Result on any stream is
// the one a from-scratch recluster of the equivalent corpus gives; that
// recluster survives only in the tests, as the oracle
// TestStoreMatchesBatchOracle holds the Store to.
//
// The determinism hinges on insertion order: the image Grouper assigns a
// hash to the lowest-numbered group within threshold, so its partition
// depends on the order hashes arrive. Users join in author first-appearance
// order in the stream, whatever the batching.
//
// A Store is safe for one writer (the label stage goroutine) plus
// Snapshot/Len from any goroutine; all methods take the store mutex.
type Store struct {
	mu  sync.Mutex
	cfg Config

	// Stream mirror: the corpus Snapshot rebuilds. norms[i] is
	// normalizedKey(tweets[i]), kept from the prep for the rules pass.
	tweets    []*socialnet.Tweet
	norms     []string
	users     map[socialnet.AccountID]*socialnet.Account
	userOrder []socialnet.AccountID

	// Profile-image clustering: persistent dHash grouper.
	img        *imagehash.Grouper
	imgMembers map[int][]socialnet.AccountID
	imgOrder   []int

	// Screen-name clustering: Σ-Seq class members.
	nameMembers map[string][]socialnet.AccountID
	nameOrder   []string

	// prep signs descriptions and tweets for the two MinHash indices below.
	prep *Prepper

	// Description near-duplicates: persistent MinHash banding + union-find.
	descIndex *minhash.Index
	descIDs   []socialnet.AccountID
	descUF    *unionFind

	// Tweet near-duplicates: persistent MinHash banding + union-find.
	twIndex *minhash.Index
	twPool  []*socialnet.Tweet
	twUF    *unionFind

	// Rule state for provisional labels.
	repeats map[string]int

	// resolve, when set, rebinds user ids to live accounts at Snapshot
	// time (see SetResolver).
	resolve func(socialnet.AccountID) *socialnet.Account

	ins       *storeInstruments
	lastTrace *trace.Trace
}

// NewStore creates a label store (zero-value cfg fields fall back to
// DefaultConfig values).
func NewStore(cfg Config) *Store {
	cfg = cfg.withDefaults()
	s := &Store{
		cfg:         cfg,
		users:       make(map[socialnet.AccountID]*socialnet.Account),
		img:         imagehash.NewGrouper(cfg.ImageHammingThreshold),
		imgMembers:  make(map[int][]socialnet.AccountID),
		nameMembers: make(map[string][]socialnet.AccountID),
		prep:        NewPrepper(cfg),
		descIndex:   minhash.NewIndex(lshBands, lshRows),
		descUF:      &unionFind{},
		twIndex:     minhash.NewIndex(lshBands, lshRows),
		twUF:        &unionFind{},
		repeats:     make(map[string]int),
		ins:         newStoreInstruments(cfg.Metrics),
	}
	s.img.SetWorkers(cfg.Workers)
	return s
}

// SetResolver installs a live-account resolver consulted when Snapshot
// builds its corpus: each user id is rebound to resolve(id) when that
// returns non-nil, falling back to the account Add stored. In normal
// streaming the stored account already is the live one and the rebinding
// is a no-op; crash recovery needs it because WAL replay runs before the
// re-seeded simulation has recreated accounts that were spawned mid-run
// (campaign churn), so replayed authors can only be bound to their frozen
// capture-time profiles — stale by labeling time. Resolving at Snapshot
// instead restores the invariant that labeling reads the engine-mutated
// profile state, exactly as an uninterrupted run would.
func (s *Store) SetResolver(resolve func(socialnet.AccountID) *socialnet.Account) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resolve = resolve
}

// Add ingests one capture: t joins the live cluster indices, and — on the
// author's first appearance — so does the author's profile. author is the
// live account retained for the snapshot corpus; profile is the
// capture-time profile snapshot the index insertions and the provisional
// check read, so Add never races with the engine mutating the live
// account. profile may equal author when the caller is single-threaded
// with the stream, as a batch caller labeling a finished corpus is.
//
// The returned provisional flag is the stream-time spam estimate feeding
// the online detector: platform-suspended author or a rule hit against
// the rule state so far. It is advisory — Snapshot recomputes real labels.
func (s *Store) Add(t *socialnet.Tweet, author, profile *socialnet.Account) bool {
	return s.AddBatch([]*socialnet.Tweet{t},
		[]*socialnet.Account{author}, []*socialnet.Account{profile})[0]
}

// AddBatch ingests one micro-batch in stream order: it fans the pure
// per-item work (the Prepper's normalization, shingling, MinHash signing,
// Σ-Seq computation) over the shared worker pool, then hands the preps to
// AddBatchPrepared for the sequential index joins. Results are
// bit-identical to item-by-item Add at any worker count.
func (s *Store) AddBatch(tweets []*socialnet.Tweet, authors, profiles []*socialnet.Account) []bool {
	s.mu.Lock()
	first := s.firstAppearancesLocked(authors)
	s.mu.Unlock()
	// One writer (the Store contract), so the first-appearance set cannot
	// change before AddBatchPrepared retakes the lock.
	users := parallel.Map(len(first), s.cfg.Workers, func(k int) UserPrep {
		return s.prep.PrepUser(profileOr(profiles[first[k]], authors[first[k]]))
	})
	userPreps := make([]*UserPrep, len(tweets))
	for k, i := range first {
		userPreps[i] = &users[k]
	}
	tweetPreps := parallel.Map(len(tweets), s.cfg.Workers, func(i int) TweetPrep {
		return s.prep.PrepTweet(tweets[i])
	})
	return s.AddBatchPrepared(tweets, authors, profiles, tweetPreps, userPreps)
}

// firstAppearancesLocked returns the batch indices whose author the store
// has not seen, one per author, in batch order.
func (s *Store) firstAppearancesLocked(authors []*socialnet.Account) []int {
	var first []int
	queued := make(map[socialnet.AccountID]struct{})
	for i, author := range authors {
		if author == nil {
			continue
		}
		if _, ok := s.users[author.ID]; ok {
			continue
		}
		if _, ok := queued[author.ID]; ok {
			continue
		}
		queued[author.ID] = struct{}{}
		first = append(first, i)
	}
	return first
}

// profileOr returns the capture-time profile snapshot, or the live author
// when the caller took none.
func profileOr(profile, author *socialnet.Account) *socialnet.Account {
	if profile == nil {
		return author
	}
	return profile
}

// addUserLocked joins one first-appearance user into the profile indices.
func (s *Store) addUserLocked(u *socialnet.Account, up UserPrep) {
	s.users[u.ID] = u
	s.userOrder = append(s.userOrder, u.ID)

	// Image: the grouper assigns the lowest matching group id, so users
	// must arrive in the global author first-appearance order.
	if !u.DefaultProfileImage {
		g := s.img.Add(u.ProfileImageHash)
		if len(s.imgMembers[g]) == 0 {
			s.imgOrder = append(s.imgOrder, g)
		}
		s.imgMembers[g] = append(s.imgMembers[g], u.ID)
	}

	// Name: Σ-Seq class membership.
	if len(s.nameMembers[up.NameSeq]) == 0 {
		s.nameOrder = append(s.nameOrder, up.NameSeq)
	}
	s.nameMembers[up.NameSeq] = append(s.nameMembers[up.NameSeq], u.ID)

	if up.DescSig != nil {
		join(s.descIndex, s.descUF, up.DescSig, s.cfg.DescSimilarity)
		s.descIDs = append(s.descIDs, u.ID)
	}
}

// join adds sig to a banding index and its union-find, uniting it with the
// sets of the earlier signatures that share a band with it and clear the
// similarity threshold. Probing before Add excludes self-candidates and
// reproduces the partition of the batch pair set {(i,j): j<i, shared band,
// sim ≥ τ}. Not every pair of that set is confirmed: a candidate already in
// sig's set — joined through an earlier candidate of this same probe — is
// skipped, because uniting a set with itself is a no-op whatever the
// similarity says.
func join(ix *minhash.Index, uf *unionFind, sig minhash.Signature, threshold float64) {
	idx := uf.add()
	for _, cand := range ix.Candidates(sig) {
		if uf.find(cand) == uf.find(idx) {
			continue
		}
		if minhash.Similarity(sig, ix.Signature(cand)) >= threshold {
			uf.union(idx, cand)
		}
	}
	ix.Add(sig)
}

// addTweetLocked joins one tweet into the stream mirror, the near-duplicate
// index, and the rule state, returning the provisional spam flag.
func (s *Store) addTweetLocked(t *socialnet.Tweet, profile *socialnet.Account, p TweetPrep) bool {
	s.tweets = append(s.tweets, t)
	s.norms = append(s.norms, p.Norm)
	s.repeats[p.Norm]++
	if p.Sig != nil {
		join(s.twIndex, s.twUF, p.Sig, s.cfg.TweetSimilarity)
		s.twPool = append(s.twPool, t)
	}
	if profile != nil && profile.Suspended {
		return true
	}
	return ruleSpam(t, p.Norm, s.repeats, s.cfg.RepeatThreshold)
}

// Len reports the ingested stream size: tweets and distinct users.
func (s *Store) Len() (tweets, users int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tweets), len(s.users)
}

// Snapshot labels everything ingested so far: it rebuilds the corpus from
// the stream mirror, materializes cluster groups from the live indices,
// and runs the propagation, rule, and manual passes over them with a fresh
// pipeline (fresh manual-stage rng seeded cfg.Seed). The store stays usable
// afterwards — streaming resumes and later Snapshots see the longer stream.
func (s *Store) Snapshot(oracle Oracle) *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The lock is held throughout, so the corpus may alias the mirror.
	c := &Corpus{
		Tweets: s.tweets,
		Users:  make(map[socialnet.AccountID]*socialnet.Account, len(s.users)),
	}
	for id, u := range s.users {
		if s.resolve != nil {
			if live := s.resolve(id); live != nil {
				u = live
			}
		}
		c.Users[id] = u
	}
	p := newPipeline(s.cfg)
	r := p.run(c, s.norms, oracle, func() ([][]socialnet.AccountID, [][]*socialnet.Tweet) {
		var userGroups [][]socialnet.AccountID
		for _, pass := range []struct {
			name   string
			groups func() [][]socialnet.AccountID
		}{
			{"image", s.imageGroupsLocked},
			{"name", s.nameGroupsLocked},
			{"description", s.descGroupsLocked},
		} {
			end := s.clusterPass(p.tr, pass.name)
			userGroups = append(userGroups, pass.groups()...)
			end()
		}
		defer s.clusterPass(p.tr, "tweets")()
		return userGroups, s.tweetGroupsLocked()
	})
	s.lastTrace = p.tr
	return r
}

// clusterPass opens one clustering pass of Snapshot: a
// label_cluster_<pass> span on tr and a ph_label_cluster_seconds{pass}
// observation, both closed by the returned func.
func (s *Store) clusterPass(tr *trace.Trace, pass string) (end func()) {
	sp := tr.StartSpan("label_cluster_" + pass)
	start := time.Now()
	return func() {
		sp.End()
		s.ins.clusterSecs.With(pass).ObserveDuration(start)
	}
}

// LastTrace returns the trace of the most recent Snapshot (nil when
// tracing is off). Callers adopt its pass spans into the capture traces
// that fed the stream.
func (s *Store) LastTrace() *trace.Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastTrace
}

// imageGroupsLocked materializes image groups (≥2 members) in group
// first-appearance order.
func (s *Store) imageGroupsLocked() [][]socialnet.AccountID {
	var groups [][]socialnet.AccountID
	for _, gi := range s.imgOrder {
		if g := s.imgMembers[gi]; len(g) >= 2 {
			groups = append(groups, g)
		}
	}
	return groups
}

// nameGroupsLocked materializes Σ-Seq groups with at least NameGroupMin
// members. Two hygiene rules keep the false-positive rate low (the paper's
// regex-learned patterns are similarly specific): a usable shape must mix
// at least two character classes, and a shape shared by a large fraction
// of the users (over maxNameGroup) carries no campaign signal.
func (s *Store) nameGroupsLocked() [][]socialnet.AccountID {
	maxNameGroup := len(s.users) / 50
	if maxNameGroup < 2*s.cfg.NameGroupMin {
		maxNameGroup = 2 * s.cfg.NameGroupMin
	}
	var groups [][]socialnet.AccountID
	for _, seq := range s.nameOrder {
		g := s.nameMembers[seq]
		if len(g) < s.cfg.NameGroupMin || len(g) > maxNameGroup {
			continue
		}
		if classCount(seq) < 2 {
			continue
		}
		groups = append(groups, g)
	}
	return groups
}

// descGroupsLocked materializes description partitions (≥2 members) from
// the union-find, in root first-appearance order with members in
// insertion order.
func (s *Store) descGroupsLocked() [][]socialnet.AccountID {
	var groups [][]socialnet.AccountID
	for _, part := range s.descUF.partitions() {
		if len(part) < 2 {
			continue
		}
		group := make([]socialnet.AccountID, len(part))
		for i, idx := range part {
			group[i] = s.descIDs[idx]
		}
		groups = append(groups, group)
	}
	return groups
}

// tweetGroupsLocked materializes near-duplicate tweet groups from the
// union-find, split into time-window buckets.
func (s *Store) tweetGroupsLocked() [][]*socialnet.Tweet {
	var groups [][]*socialnet.Tweet
	for _, part := range s.twUF.partitions() {
		if len(part) < 2 {
			continue
		}
		members := make([]*socialnet.Tweet, len(part))
		for i, idx := range part {
			members[i] = s.twPool[idx]
		}
		groups = append(groups, splitByWindow(members, s.cfg.TweetWindow)...)
	}
	return groups
}

// unionFind is a grow-only disjoint-set over [0, n) with path compression.
type unionFind struct {
	parent []int
}

// add appends a fresh singleton and returns its index.
func (u *unionFind) add() int {
	idx := len(u.parent)
	u.parent = append(u.parent, idx)
	return idx
}

func (u *unionFind) find(x int) int {
	if u.parent[x] != x {
		u.parent[x] = u.find(u.parent[x])
	}
	return u.parent[x]
}

func (u *unionFind) union(a, b int) {
	u.parent[u.find(a)] = u.find(b)
}

// partitions returns every component's member indices in ascending order,
// components ordered by first-appearing member.
func (u *unionFind) partitions() [][]int {
	byRoot := make(map[int][]int)
	var rootOrder []int
	for i := range u.parent {
		root := u.find(i)
		if len(byRoot[root]) == 0 {
			rootOrder = append(rootOrder, root)
		}
		byRoot[root] = append(byRoot[root], i)
	}
	parts := make([][]int, 0, len(byRoot))
	for _, root := range rootOrder {
		parts = append(parts, byRoot[root])
	}
	return parts
}
