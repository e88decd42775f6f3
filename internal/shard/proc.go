package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/features"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/twitterapi"
)

// Transport abstracts a fleet of proc-mode shard workers so coordinator
// failure-edge tests can inject faults (truncated responses, dead
// workers) without real processes. The production implementation spawns
// worker subprocesses and POSTs over loopback HTTP.
type Transport interface {
	// Epoch posts one epoch request body to a shard worker and returns
	// the raw NDJSON response.
	Epoch(shard int, body []byte) ([]byte, error)
	// Restart tears down and respawns one worker after a failure. The
	// replacement starts with empty shard-local state; the wire contract
	// tolerates that (redundant profile preps are idempotent).
	Restart(shard int) error
	// Close shuts the whole fleet down.
	Close() error
}

// Merged is one fully merged capture: the live engine tweet, the decoded
// match-time profile snapshots, the union of every shard's group matches,
// and the donor shard's precomputed vector and label preps.
type Merged struct {
	Tweet     *socialnet.Tweet
	Sender    *socialnet.Account
	Receiver  *socialnet.Account
	Groups    []int
	Vec       features.Vector
	TweetPrep label.TweetPrep
	UserPrep  *label.UserPrep
	// Origin is the ingest-source id of the stream the capture came from.
	Origin string
}

// ProcConfig parameterizes the separate-process shard coordinator.
type ProcConfig struct {
	// Shards is the worker count (min 1).
	Shards int
	// Lookup resolves live accounts at encode time (the simulation
	// world's Account func).
	Lookup func(socialnet.AccountID) *socialnet.Account
	// Apply consumes one epoch's merged captures in stream order.
	Apply func(batch []Merged) error
	// Transport overrides the subprocess transport (tests). Nil spawns
	// real workers by re-executing the current binary.
	Transport Transport
	// MaxRetries bounds how many times a failed shard epoch is retried
	// after a worker restart (default 2).
	MaxRetries int
	// Metrics receives the coordinator's shard counters (worker restarts,
	// epoch retries, lines shipped, hits merged); nil binds
	// metrics.Default().
	Metrics *metrics.Registry
	// Tracer records one coordinator trace per epoch, with the workers'
	// exported spans stitched in as children of the per-shard
	// shard_extract spans; nil binds trace.Default() (disabled by
	// default, making every trace call a no-op).
	Tracer *trace.Tracer
	// Origin is the ingest-source id of the tweet stream; it travels in
	// every epoch header and is stamped on merged captures. Empty means
	// "twitter".
	Origin string
}

// ProcCoordinator drives separate-process shards through the epoch wire:
// per simulated hour it buffers every candidate tweet (encoded once, at
// emit time, freezing the profile snapshots exactly as an in-process
// match would), posts each shard its subset, merge-sorts the hit streams
// by tweet id, and applies the merged captures. The hour boundary is the
// rotation barrier: the caller's hour hook Drains the previous epoch, rotates,
// and hands BeginEpoch the post-rotation node assignment.
type ProcCoordinator struct {
	cfg    ProcConfig
	ring   *Ring
	tr     Transport
	obs    *procObs
	tracer *trace.Tracer

	epoch   int
	etrace  *trace.Trace // the current epoch's coordinator trace
	nodes   map[socialnet.AccountID][]int
	bufs    []bytes.Buffer
	hdrLen  []int // per shard: length of the epoch header line in bufs
	lines   map[int64][]byte
	tweets  map[int64]*socialnet.Tweet
	scratch []int
}

// procObs is the coordinator's per-shard counter set, with the Vec
// children resolved once at construction so the stream tap stays
// lookup-free. Shard label values are 1-based, matching the pipeline's
// shard labels.
type procObs struct {
	restarts []*metrics.Counter // ph_shard_worker_restarts_total{shard}
	retries  []*metrics.Counter // ph_shard_epoch_retries_total{shard}
	lines    []*metrics.Counter // ph_shard_epoch_lines_total{shard}
	hits     []*metrics.Counter // ph_shard_epoch_hits_total{shard}
}

func newProcObs(reg *metrics.Registry, shards int) *procObs {
	if reg == nil {
		reg = metrics.Default()
	}
	restarts := reg.CounterVec("ph_shard_worker_restarts_total",
		"Proc-mode shard workers torn down and respawned after a failed epoch attempt.", "shard")
	retries := reg.CounterVec("ph_shard_epoch_retries_total",
		"Shard epoch attempts retried after a transport error or truncated response.", "shard")
	lines := reg.CounterVec("ph_shard_epoch_lines_total",
		"Candidate tweet lines shipped to each shard worker over the epoch wire.", "shard")
	hits := reg.CounterVec("ph_shard_epoch_hits_total",
		"Hits parsed back from each shard worker's epoch responses.", "shard")
	o := &procObs{}
	for s := 0; s < shards; s++ {
		lv := strconv.Itoa(s + 1)
		o.restarts = append(o.restarts, restarts.With(lv))
		o.retries = append(o.retries, retries.With(lv))
		o.lines = append(o.lines, lines.With(lv))
		o.hits = append(o.hits, hits.With(lv))
	}
	return o
}

// NewProcCoordinator builds the coordinator and spawns the worker fleet.
func NewProcCoordinator(cfg ProcConfig) (*ProcCoordinator, error) {
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	if cfg.Origin == "" {
		cfg.Origin = "twitter"
	}
	ring := NewRing(cfg.Shards)
	tr := cfg.Transport
	if tr == nil {
		var err error
		if tr, err = newProcTransport(ring.Shards()); err != nil {
			return nil, err
		}
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = trace.Default()
	}
	return &ProcCoordinator{
		cfg:    cfg,
		ring:   ring,
		tr:     tr,
		obs:    newProcObs(cfg.Metrics, ring.Shards()),
		tracer: tracer,
		bufs:   make([]bytes.Buffer, ring.Shards()),
		hdrLen: make([]int, ring.Shards()),
		lines:  make(map[int64][]byte),
		tweets: make(map[int64]*socialnet.Tweet),
	}, nil
}

// adminLister is the optional Transport extension exposing each worker's
// admin base URL (the loopback epoch-wire server, which also mounts
// /metrics and /healthz) for the fleet federator to scrape.
type adminLister interface {
	AdminURLs() []string
}

// AdminURLs returns the per-shard worker admin base URLs, or nil when the
// transport has none (in-memory fault doubles). The slice is indexed by
// shard; a respawned worker changes its entry, which the federator treats
// as a restart.
func (pc *ProcCoordinator) AdminURLs() []string {
	if al, ok := pc.tr.(adminLister); ok {
		return al.AdminURLs()
	}
	return nil
}

// Shards returns the effective shard count.
func (pc *ProcCoordinator) Shards() int { return pc.ring.Shards() }

// BeginEpoch opens a new epoch with the post-rotation node set. It runs on
// the engine goroutine at hour start, before any of the hour's traffic.
func (pc *ProcCoordinator) BeginEpoch(nodes map[socialnet.AccountID][]int) {
	pc.epoch++
	pc.nodes = nodes
	// One coordinator trace per epoch; its id travels in every shard's
	// header so worker spans stitch back under it at Drain.
	pc.etrace = pc.tracer.Start("shard_epoch")
	pc.etrace.SetAttr("epoch", strconv.Itoa(pc.epoch))
	n := pc.ring.Shards()
	assign := make([][]NodeAssignment, n)
	for id, groups := range nodes {
		s := pc.ring.Owner(id)
		assign[s] = append(assign[s], NodeAssignment{ID: int64(id), Groups: groups})
	}
	for s := 0; s < n; s++ {
		// Node order is irrelevant to workers (they build a map) but
		// sorting keeps the request bytes deterministic for the wire
		// fingerprint in tests.
		sort.Slice(assign[s], func(i, j int) bool { return assign[s][i].ID < assign[s][j].ID })
		pc.bufs[s].Reset()
		hdr, _ := json.Marshal(epochHeader{
			Epoch: pc.epoch, Nodes: assign[s],
			TraceID: pc.etrace.ID(), Origin: pc.cfg.Origin,
		})
		pc.bufs[s].Write(hdr)
		pc.bufs[s].WriteByte('\n')
		pc.hdrLen[s] = pc.bufs[s].Len()
	}
	clear(pc.lines)
	clear(pc.tweets)
}

// OnTweet is the coordinator's stream tap, run on the engine goroutine for
// every emitted tweet. Candidates (any mention or author in the epoch's
// node set) are wire-encoded once — freezing the profiles at emit time —
// and buffered for every shard owning a matched node.
func (pc *ProcCoordinator) OnTweet(t *socialnet.Tweet) {
	targets := pc.scratch[:0]
	for _, m := range t.Mentions {
		if _, ok := pc.nodes[m]; ok {
			targets = appendUnique(targets, []int{pc.ring.Owner(m)})
		}
	}
	if _, ok := pc.nodes[t.AuthorID]; ok {
		targets = appendUnique(targets, []int{pc.ring.Owner(t.AuthorID)})
	}
	if len(targets) == 0 {
		pc.scratch = targets
		return
	}
	wire := twitterapi.EncodeTweet(t, pc.cfg.Lookup, true)
	line, err := json.Marshal(wire)
	if err != nil {
		pc.scratch = targets[:0]
		return
	}
	for _, s := range targets {
		pc.bufs[s].Write(line)
		pc.bufs[s].WriteByte('\n')
		pc.obs.lines[s].Inc()
	}
	id := int64(t.ID)
	pc.lines[id] = line
	pc.tweets[id] = t
	pc.scratch = targets[:0]
}

// Drain flushes the open epoch: it posts the buffered candidates to every
// shard, retrying a failed shard after a worker restart (the request bytes
// are retained untouched, so a retried epoch is byte-identical — and the
// response is idempotent), then merges the hit streams and applies the
// captures in stream order. The buffers are emptied back to their headers
// whether or not the flush succeeded, so an epoch is attempted once and a
// Drain with nothing buffered — a second call, an hour without candidates,
// a call before the first BeginEpoch — does nothing.
func (pc *ProcCoordinator) Drain() error {
	if len(pc.tweets) == 0 {
		return nil
	}
	defer func() {
		for s := range pc.bufs {
			pc.bufs[s].Truncate(pc.hdrLen[s])
		}
		clear(pc.lines)
		clear(pc.tweets)
	}()
	n := pc.ring.Shards()
	hits := make([][]Hit, n)
	for s := 0; s < n; s++ {
		// Detach the request bytes from the reusable epoch buffer: the
		// HTTP transport may still be draining an aborted body write in a
		// background goroutine after a failed attempt returns, and the
		// buffer is truncated and rewritten in place.
		body := append([]byte(nil), pc.bufs[s].Bytes()...)
		esp := pc.etrace.StartSpan("shard_extract")
		esp.SetAttr("shard", strconv.Itoa(s+1))
		var lastErr error
		for attempt := 0; attempt <= pc.cfg.MaxRetries; attempt++ {
			if attempt > 0 {
				pc.obs.retries[s].Inc()
				if err := pc.tr.Restart(s); err != nil {
					lastErr = fmt.Errorf("restart: %w", err)
					continue
				}
				pc.obs.restarts[s].Inc()
			}
			resp, err := pc.tr.Epoch(s, body)
			if err != nil {
				lastErr = err
				continue
			}
			hs, spans, err := parseHits(resp, s)
			if err != nil {
				lastErr = err
				continue
			}
			pc.obs.hits[s].Add(float64(len(hs)))
			pc.stitch(s, spans)
			hits[s], lastErr = hs, nil
			break
		}
		esp.End()
		if lastErr != nil {
			pc.etrace.Finish()
			return fmt.Errorf("shard: epoch %d shard %d failed after %d retries: %w",
				pc.epoch, s, pc.cfg.MaxRetries, lastErr)
		}
	}
	msp := pc.etrace.StartSpan("shard_merge")
	merged, err := pc.merge(hits)
	msp.End()
	if err != nil {
		pc.etrace.Finish()
		return err
	}
	if len(merged) == 0 {
		pc.etrace.Finish()
		return nil
	}
	asp := pc.etrace.StartSpan("shard_apply")
	err = pc.cfg.Apply(merged)
	asp.SetAttr("captures", strconv.Itoa(len(merged)))
	asp.End()
	pc.etrace.Finish()
	return err
}

// stitch re-ingests one worker's exported spans into the coordinator's
// epoch trace as children of that shard's shard_extract span (marked via
// the parent attribute — the trace model is flat, so the rendering key is
// attributes plus containment in time). The result is one end-to-end tree
// per capture epoch in /debug/traces, spanning the process boundary.
func (pc *ProcCoordinator) stitch(shard int, spans []WireSpan) {
	if pc.etrace == nil || len(spans) == 0 {
		return
	}
	lv := strconv.Itoa(shard + 1)
	for _, ws := range spans {
		start := time.Unix(0, ws.StartUnixNano)
		attrs := make([]trace.KV, 0, len(ws.Attrs)+2)
		attrs = append(attrs, ws.Attrs...)
		attrs = append(attrs,
			trace.KV{Key: "parent", Value: "shard_extract"},
			trace.KV{Key: "shard", Value: lv})
		pc.etrace.AddSpan(ws.Stage, start, start.Add(time.Duration(ws.DurationNS)), attrs...)
	}
}

// merge k-way-merges the per-shard hit streams (each ascending in tweet
// id) back into global stream order, combining multi-shard hits on the
// same tweet: groups are the sorted union, and the donor hit — globally
// smallest resolvable mention index, mirroring Match's receiver rule —
// supplies the vector, receiver, and preps.
func (pc *ProcCoordinator) merge(hits [][]Hit) ([]Merged, error) {
	heads := make([]int, len(hits))
	var out []Merged
	for {
		minID := int64(-1)
		for s, hs := range hits {
			if heads[s] < len(hs) {
				if id := hs[heads[s]].TweetID; minID < 0 || id < minID {
					minID = id
				}
			}
		}
		if minID < 0 {
			return out, nil
		}
		var group []Hit
		for s, hs := range hits {
			if heads[s] < len(hs) && hs[heads[s]].TweetID == minID {
				group = append(group, hs[heads[s]])
				heads[s]++
			}
		}
		m, err := pc.combine(minID, group)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
}

// combine folds the (ascending-shard-ordered) hits on one tweet into a
// Merged capture.
func (pc *ProcCoordinator) combine(tweetID int64, group []Hit) (Merged, error) {
	t, ok := pc.tweets[tweetID]
	if !ok {
		return Merged{}, fmt.Errorf("shard: hit for unknown tweet %d", tweetID)
	}
	donor := group[0]
	var groups []int
	for _, h := range group {
		groups = appendUnique(groups, h.Groups)
		if h.MentionIdx >= 0 && (donor.MentionIdx < 0 || h.MentionIdx < donor.MentionIdx) {
			donor = h
		}
	}
	sort.Ints(groups)

	var wt twitterapi.Tweet
	if err := json.Unmarshal(pc.lines[tweetID], &wt); err != nil {
		return Merged{}, fmt.Errorf("shard: tweet %d line: %w", tweetID, err)
	}
	_, sender := decodeCandidate(&wt)
	var receiver *socialnet.Account
	if donor.MentionIdx >= 0 {
		receiver = twitterapi.DecodeUser(&wt.XMentionUsers[donor.MentionIdx])
	}
	m := Merged{
		Tweet:     t,
		Sender:    sender,
		Receiver:  receiver,
		Groups:    groups,
		TweetPrep: donor.TweetPrep,
		Origin:    pc.cfg.Origin,
	}
	copy(m.Vec[:], donor.Vec)
	// Any shard's prep of this author works (pure function of the same
	// embedded snapshot); take the first in shard order for determinism.
	for _, h := range group {
		if h.UserPrep != nil {
			m.UserPrep = h.UserPrep
			break
		}
	}
	return m, nil
}

// Close flushes the open epoch — like Fanout.Close, everything tapped
// before Close still reaches Apply — and shuts the worker fleet down.
func (pc *ProcCoordinator) Close() error {
	return errors.Join(pc.Drain(), pc.tr.Close())
}
