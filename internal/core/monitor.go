package core

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/features"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// Screener finds candidate pseudo-honeypot accounts. socialnet.World
// satisfies it directly through LocalScreener; an API-backed implementation
// screens through /1.1/users/search.
type Screener interface {
	Screen(q socialnet.ScreenQuery, now time.Time) []*socialnet.Account
}

// LocalScreener screens an in-process world. World.Screen answers from a
// columnar index it keeps while the world and the instant are unchanged
// (DESIGN.md §18), so it must be called from the goroutine that drives the
// world's engine — where Rotate runs in every topology.
type LocalScreener struct {
	World *socialnet.World
	Rng   *rand.Rand
}

var _ Screener = (*LocalScreener)(nil)

// Screen implements Screener.
func (s *LocalScreener) Screen(q socialnet.ScreenQuery, now time.Time) []*socialnet.Account {
	return s.World.Screen(q, now, s.Rng)
}

// MonitorConfig parameterizes a pseudo-honeypot monitor.
type MonitorConfig struct {
	// Specs is the deployment plan (selectors and node budgets).
	Specs []SelectorSpec

	// ActiveOnly restricts selection to accounts in Active status
	// (paper §III-D). When few accounts qualify (e.g. the first hours of
	// a run), selection transparently falls back to all accounts so the
	// network never starts empty.
	ActiveOnly bool

	// Tolerance is the numeric sample-value band (0 ⇒ socialnet default).
	Tolerance float64

	// ReuseNodes allows re-selecting accounts used in earlier rotations.
	// The paper migrates to fresh accounts each hour; tests may disable
	// exclusion to keep small worlds from exhausting candidates.
	ReuseNodes bool

	// MaxRatio is the selection-hygiene bound on candidates'
	// friend/follower ratio (skip follow-heavy spam-looking accounts).
	// Zero uses DefaultMaxRatio; negative disables the filter. The
	// filter never applies to ratio-attribute selectors, which sample
	// specific ratios by design.
	MaxRatio float64

	// Seed drives selection sampling.
	Seed int64

	// CaptureCap bounds the capture store: past the cap the oldest capture
	// is evicted deterministically (FIFO). Zero keeps everything.
	CaptureCap int

	// Metrics receives the monitor's instrumentation (DESIGN.md §9).
	// Nil binds to the process-wide metrics.Default() registry.
	Metrics *metrics.Registry

	// Tracer records per-capture pipeline traces (DESIGN.md §11). Nil
	// binds to the process-wide trace.Default() tracer, which starts
	// disabled — tracing then costs one atomic load per stream hit.
	Tracer *trace.Tracer
}

// GroupStats aggregates what one selector's node group captured.
type GroupStats struct {
	Spec SelectorSpec

	// NodeHours is Σ (selected nodes × rotation hours) — the G·T term of
	// the PGE denominator.
	NodeHours float64

	// Tweets is the number of captured tweets attributed to the group.
	Tweets int

	// Senders is the set of distinct authors of captured tweets.
	Senders map[socialnet.AccountID]struct{}

	// Spams / Spammers are filled in by the detector's attribution pass.
	Spams    int
	Spammers map[socialnet.AccountID]struct{}
}

// Capture is one collected tweet with its extraction context.
type Capture struct {
	Tweet *socialnet.Tweet
	// Sender is the author's live account (nil when the lookup missed);
	// the mentioned node is read only as ReceiverSnapshot.
	Sender *socialnet.Account
	// Groups indexes into the monitor's group list: every selector group
	// whose node captured this tweet.
	Groups []int
	// Vector is the 58-feature vector extracted at capture time.
	Vector features.Vector
	// Spam is the detector's verdict, set by the classification pass
	// (not ground truth).
	Spam bool
	// Trace is the capture's pipeline trace, nil when tracing is off.
	// Batch stages (labeling, classification) append spans after the
	// capture itself finished.
	Trace *trace.Trace
	// Source is the id of the ingest source that delivered the tweet
	// ("twitter", "reddit", "replay", "wire"); empty only on captures of a
	// monitor wired with Attach, which filters an engine without a source.
	Source string

	// senderSnap/receiverSnap are profile copies taken on the engine
	// goroutine at match time. Feature extraction reads them instead of
	// the live accounts, so a deferred (streaming-stage) extraction sees
	// exactly the field values a synchronous batch extraction saw — the
	// engine keeps mutating the live profiles underneath.
	senderSnap   *socialnet.Account
	receiverSnap *socialnet.Account
}

// SenderSnapshot returns the author profile frozen at match time (nil on
// lookup misses). Streaming stages read it where the live Sender pointer
// would race with the engine mutating the account.
func (c *Capture) SenderSnapshot() *socialnet.Account { return c.senderSnap }

// DefaultMaxRatio is the default selection-hygiene bound on candidates'
// friend/follower ratio.
const DefaultMaxRatio = 10

// Monitor implements pseudo-honeypot monitoring: it holds the current node
// set, rotates it to fresh accounts (portability, §III-D), filters the
// tweet stream down to mention interactions crossing the nodes (§III-E),
// and extracts features at capture time.
type Monitor struct {
	cfg      MonitorConfig
	screener Screener
	rng      *rand.Rand

	groups []*GroupStats
	// nodes maps a currently-selected account to the groups it serves.
	// Rotate reuses the map, and each group list is a window of
	// nodeGroups, built from the rotation's picks; all three are reused.
	nodes      map[socialnet.AccountID][]int
	nodeGroups []int
	picks      []nodePick
	// used records accounts selected in any rotation (exclusion set).
	used socialnet.AccountSet

	extractor *features.Extractor
	store     *CaptureStore

	// scratchGroups is reused across Match calls so the hot stream path
	// allocates nothing on a miss; scratchAttrs is reused across
	// CompleteCapture calls. In a sniffer's stage graph Match runs on the
	// delivery goroutine and CompleteCapture on the merge stage goroutine,
	// so neither method may touch the other's scratch slice.
	scratchGroups []int
	scratchAttrs  []string

	rotations int
	// lastRotation is the per-group node count of the most recent Rotate —
	// what the durable rotation record persists so a WAL replay can
	// re-accrue node hours without re-screening a world that is gone.
	lastRotation []int
	ins          *monitorInstruments
	tracer       *trace.Tracer
}

// NewMonitor creates a monitor over the screener.
func NewMonitor(cfg MonitorConfig, screener Screener) *Monitor {
	m := &Monitor{
		cfg:       cfg,
		screener:  screener,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		nodes:     make(map[socialnet.AccountID][]int),
		extractor: features.NewExtractor(),
	}
	for _, spec := range cfg.Specs {
		m.groups = append(m.groups, &GroupStats{
			Spec:     spec,
			Senders:  make(map[socialnet.AccountID]struct{}),
			Spammers: make(map[socialnet.AccountID]struct{}),
		})
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	m.store = NewCaptureStore(cfg.CaptureCap, reg)
	m.ins = newMonitorInstruments(reg, m.groups)
	m.tracer = cfg.Tracer
	if m.tracer == nil {
		m.tracer = trace.Default()
	}
	return m
}

// Extractor exposes the monitor's feature extractor (for environment-score
// updates after classification).
func (m *Monitor) Extractor() *features.Extractor { return m.extractor }

// Groups returns the per-selector statistics (shared, live values).
func (m *Monitor) Groups() []*GroupStats { return m.groups }

// Captures returns the retained observations, oldest first, in a freshly
// allocated slice. Callers may reorder or truncate the slice freely; the
// *Capture elements themselves stay shared with the monitor, matching the
// live-trace and verdict-attribution contracts.
func (m *Monitor) Captures() []*Capture { return m.store.Snapshot() }

// Store exposes the bounded capture store (eviction stats, spill
// snapshot/restore).
func (m *Monitor) Store() *CaptureStore { return m.store }

// CurrentNodes returns a copy of the current node assignment: each
// harnessed account mapped to the indices of the selector groups it serves.
func (m *Monitor) CurrentNodes() map[socialnet.AccountID][]int {
	out := make(map[socialnet.AccountID][]int, len(m.nodes))
	for id, gis := range m.nodes {
		out[id] = append([]int(nil), gis...)
	}
	return out
}

// Rotate drops the previous node set and selects a fresh one (the paper
// rotates hourly). period is the time the new set will be monitored; it
// feeds the node-hours PGE denominator.
//
// Every group screens at the same now, with up to two fallback queries:
// against an in-process world all of them share one screening index, built
// by the first.
func (m *Monitor) Rotate(now time.Time, period time.Duration) {
	start := time.Now()
	tr := m.tracer.Start("rotate")
	sp := tr.StartSpan("rotate")
	picks := m.picks[:0]
	rotCounts := make([]int, len(m.groups))
	maxRatio := m.cfg.MaxRatio
	if maxRatio == 0 {
		maxRatio = DefaultMaxRatio
	}
	for gi, g := range m.groups {
		q := socialnet.ScreenQuery{
			Selector:   g.Spec.Selector,
			Count:      g.Spec.Nodes,
			Tolerance:  m.cfg.Tolerance,
			ActiveOnly: m.cfg.ActiveOnly,
		}
		if maxRatio > 0 && g.Spec.Selector.Attr != socialnet.AttrFriendFollowerRatio {
			q.MaxFriendFollowerRatio = maxRatio
		}
		if !m.cfg.ReuseNodes {
			q.Exclude = &m.used
		}
		accounts := m.screener.Screen(q, now)
		if m.cfg.ActiveOnly && len(accounts) < g.Spec.Nodes {
			// Too few active candidates (e.g. cold start): fall back
			// to dormant accounts to fill the budget.
			q.ActiveOnly = false
			accounts = m.screener.Screen(q, now)
		}
		if !m.cfg.ReuseNodes && len(accounts) < g.Spec.Nodes {
			// Exclusion exhausted the candidate pool: allow reuse.
			q.Exclude = nil
			accounts = m.screener.Screen(q, now)
		}
		for _, a := range accounts {
			picks = append(picks, nodePick{a.ID, gi})
			m.used.Add(a.ID)
		}
		g.NodeHours += float64(len(accounts)) * period.Hours()
		rotCounts[gi] = len(accounts)
		m.ins.groupNodeHours[gi].Add(float64(len(accounts)) * period.Hours())
		m.ins.updateGroup(gi, g)
	}
	m.setNodes(picks)
	m.lastRotation = rotCounts
	m.rotations++
	m.ins.rotations.Inc()
	m.ins.nodes.Set(float64(len(m.nodes)))
	m.ins.rotationSecs.ObserveDuration(start)
	sp.End()
	if tr != nil {
		tr.SetAttr("rotation", strconv.Itoa(m.rotations))
		tr.SetAttr("nodes", strconv.Itoa(len(m.nodes)))
	}
	tr.Finish()
}

// nodePick is one account a rotation selected for one group.
type nodePick struct {
	id socialnet.AccountID
	gi int
}

// setNodes replaces the node set with the rotation's picks. Sorted by
// (id, group), each account's groups are one run, in the ascending group
// order the picks were made in; the run becomes its group list.
func (m *Monitor) setNodes(picks []nodePick) {
	slices.SortFunc(picks, func(a, b nodePick) int {
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		return cmp.Compare(a.gi, b.gi)
	})
	clear(m.nodes)
	groups := slices.Grow(m.nodeGroups[:0], len(picks))
	for i := 0; i < len(picks); {
		start := len(groups)
		id := picks[i].id
		for ; i < len(picks) && picks[i].id == id; i++ {
			groups = append(groups, picks[i].gi)
		}
		m.nodes[id] = groups[start:len(groups):len(groups)]
	}
	m.nodeGroups, m.picks = groups, picks
}

// AccrueHours extends the current node set's monitored time without
// reselecting — the static (non-rotating) deployment mode used by the
// portability ablation.
func (m *Monitor) AccrueHours(period time.Duration) {
	counts := make(map[int]int)
	for _, gis := range m.nodes {
		for _, gi := range gis {
			counts[gi]++
		}
	}
	for gi, n := range counts {
		m.groups[gi].NodeHours += float64(n) * period.Hours()
		m.ins.groupNodeHours[gi].Add(float64(n) * period.Hours())
		m.ins.updateGroup(gi, m.groups[gi])
	}
}

// LastRotationCounts returns the per-group node counts selected by the
// most recent Rotate (nil before the first rotation). The durable store
// persists them so a replayed run re-accrues the same node hours.
func (m *Monitor) LastRotationCounts() []int { return m.lastRotation }

// AccrueGroupNodes credits each group with counts[gi] nodes monitored for
// period — the replay-mode twin of Rotate's node-hours accrual. Replay
// cannot re-screen the original world, so it feeds the recorded rotation
// counts back through this instead. Counts beyond the group list are
// ignored (a recording from a larger deployment plan fails validation
// upstream).
func (m *Monitor) AccrueGroupNodes(counts []int, period time.Duration) {
	for gi, n := range counts {
		if gi >= len(m.groups) || n == 0 {
			continue
		}
		m.groups[gi].NodeHours += float64(n) * period.Hours()
		m.ins.groupNodeHours[gi].Add(float64(n) * period.Hours())
		m.ins.updateGroup(gi, m.groups[gi])
	}
	m.rotations++
	m.ins.rotations.Inc()
}

// OnTweet feeds one stream tweet through the mention filter. lookup
// resolves account profiles (world lookup in-process, REST lookup over the
// API). Tweets are captured when they mention a current node or are
// authored by one (the paper's Categories (1)–(3)).
//
// OnTweet matches, extracts, and retains in one call on the engine
// goroutine; it is what Attach subscribes. A sniffer's stage graph runs
// the same steps split across goroutines — Match on the delivery
// goroutine, StatelessVector on a shard, CompleteCapture +
// Store().Append on the merge stage — in identical order.
func (m *Monitor) OnTweet(t *socialnet.Tweet, lookup func(socialnet.AccountID) *socialnet.Account) {
	c := m.Match(t, lookup)
	if c == nil {
		return
	}
	m.ExtractCapture(c)
	m.store.Append(c)
}

// Match is the ingest stage: it runs the mention filter, does the
// per-group attribution bookkeeping, and snapshots the sender/receiver
// profiles for deferred extraction. It returns nil on a miss. Match must
// run on the stream (engine) goroutine — it reads the live node set and
// copies live profiles.
func (m *Monitor) Match(t *socialnet.Tweet, lookup func(socialnet.AccountID) *socialnet.Account) *Capture {
	// The vast majority of stream tweets miss the node set: collect the
	// matched group indices into a reused scratch slice so the miss path
	// allocates nothing.
	var receiver *socialnet.Account
	scratch := m.scratchGroups[:0]
	for _, mention := range t.Mentions {
		if gis, ok := m.nodes[mention]; ok {
			scratch = appendUnique(scratch, gis)
			if receiver == nil {
				receiver = lookup(mention)
			}
		}
	}
	if gis, ok := m.nodes[t.AuthorID]; ok {
		scratch = appendUnique(scratch, gis)
	}
	if len(scratch) == 0 {
		m.scratchGroups = scratch
		return nil
	}
	// Deterministic group order (the former set was map-ordered).
	sort.Ints(scratch)

	// A hit: trace this capture's journey. The miss path above never
	// reaches here, so its zero-allocation discipline is untouched.
	tr := m.tracer.Start("capture")
	sp := tr.StartSpan("capture")

	sender := lookup(t.AuthorID)
	groups := make([]int, len(scratch))
	copy(groups, scratch)
	for _, gi := range groups {
		g := m.groups[gi]
		g.Tweets++
		g.Senders[t.AuthorID] = struct{}{}
		m.ins.groupTweets[gi].Inc()
	}
	m.ins.tweetsCaptured.Inc()
	m.scratchGroups = scratch[:0]

	c := &Capture{
		Tweet:  t,
		Sender: sender,
		Groups: groups,
		Trace:  tr,
	}
	// Profile snapshots for deferred extraction: copied here, on the
	// engine goroutine, so they freeze the exact values a synchronous
	// extraction would read.
	if sender != nil {
		snap := *sender
		c.senderSnap = &snap
	}
	if receiver != nil {
		snap := *receiver
		c.receiverSnap = &snap
	}
	sp.End()
	if tr != nil {
		tr.SetAttr("tweet", strconv.FormatInt(int64(t.ID), 10))
		tr.SetAttr("sender", strconv.FormatInt(int64(t.AuthorID), 10))
		tr.SetAttr("groups", strconv.Itoa(len(groups)))
	}
	return c
}

// ExtractCapture is the feature step in one call (OnTweet's; the stage
// graph runs its two halves on different goroutines): StatelessVector,
// then CompleteCapture. CompleteCapture folds per-account history, so
// ExtractCapture must see captures in stream order — one goroutine, FIFO.
func (m *Monitor) ExtractCapture(c *Capture) {
	m.CompleteCapture(c, m.StatelessVector(c))
}

// StatelessVector computes the order-independent portion of c's feature
// vector from its frozen profile snapshots. It reads no mutable monitor or
// extractor state, so shard workers call it concurrently and out of stream
// order; CompleteCapture later fills in the stateful remainder serially.
func (m *Monitor) StatelessVector(c *Capture) features.Vector {
	return features.Stateless(features.Observation{
		Tweet:    c.Tweet,
		Sender:   c.senderSnap,
		Receiver: c.receiverSnap,
	})
}

// CompleteCapture finishes a capture given vec == StatelessVector(c),
// which a shard may have computed on another goroutine or in a worker
// process: it fills the stateful features (repeated-content, behaviour,
// environment score) in stream order and finishes the capture trace.
func (m *Monitor) CompleteCapture(c *Capture, vec features.Vector) {
	sp := c.Trace.StartSpan("feature_complete")
	attrKeys := m.scratchAttrs[:0]
	for _, gi := range c.Groups {
		attrKeys = append(attrKeys, m.groups[gi].Spec.Selector.Attr.Key())
	}
	m.extractor.CompleteStateful(features.Observation{
		Tweet:    c.Tweet,
		Sender:   c.senderSnap,
		Receiver: c.receiverSnap,
		AttrKeys: attrKeys,
	}, &vec)
	c.Vector = vec
	m.scratchAttrs = attrKeys[:0]
	sp.End()
	c.Trace.Finish()
}

// appendUnique appends the group indices from gis not already in dst.
// Group fan-out per tweet is tiny, so the linear scan beats a set.
func appendUnique(dst []int, gis []int) []int {
	for _, gi := range gis {
		dup := false
		for _, have := range dst {
			if have == gi {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, gi)
		}
	}
	return dst
}

// AttributeSpam sets the per-group spam statistics from the detector's
// verdicts on the retained captures, index for index, and refreshes the
// environment scores (P_attr) the extractor uses for subsequent captures.
// Every call attributes from zero, so the statistics are a function of
// the verdicts it is given: calling it again with the same verdicts, as
// a second DetectAll does, changes nothing. A capture that CaptureCap has
// evicted has no verdict, so it loses whatever credit an earlier call gave
// it: like training and classification, PGE covers the retained window.
//
// Only spam *received* by a node (a mention capture) is attributed to the
// node's selector group: PGE measures an attribute's power to attract
// spammers, and a harnessed account that itself turns out to be a spammer
// (Category (1)) garners nothing. Category (1) spam still appears in the
// capture list and the run totals.
func (m *Monitor) AttributeSpam(verdicts []bool) {
	tr := m.tracer.Start("pge_attribute")
	sp := tr.StartSpan("pge_attribute")
	defer func() {
		sp.End()
		if tr != nil {
			tr.SetAttr("verdicts", strconv.Itoa(len(verdicts)))
		}
		tr.Finish()
	}()
	for _, g := range m.groups {
		g.Spams = 0
		clear(g.Spammers)
	}
	m.store.Range(func(i int, c *Capture) bool {
		if i >= len(verdicts) {
			return false
		}
		c.Spam = verdicts[i]
		if !c.Spam || c.receiverSnap == nil {
			return true
		}
		for _, gi := range c.Groups {
			g := m.groups[gi]
			g.Spams++
			g.Spammers[c.Tweet.AuthorID] = struct{}{}
		}
		return true
	})
	for gi, g := range m.groups {
		m.ins.updateGroup(gi, g)
		if g.Tweets == 0 {
			continue
		}
		p := float64(g.Spams) / float64(g.Tweets)
		m.extractor.UpdateEnvScore(g.Spec.Selector.Attr.Key(), p)
	}
}
