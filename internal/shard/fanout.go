package shard

import (
	"errors"
	"slices"
	"strconv"
	"sync"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/features"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/pipeline"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// Item is one matched capture in flight from a shard to the coordinator:
// the capture plus everything the shard precomputed for it (stateless
// features, label preps). Seq is the coordinator-assigned ingest sequence
// number; the merge stage reorders by it so downstream stages observe
// captures in exactly the single-monitor stream order.
//
// Spam is the label step's stream-time provisional verdict, read by the
// detect step.
type Item struct {
	Seq       uint64
	C         *core.Capture
	Vec       features.Vector
	TweetPrep label.TweetPrep
	UserPrep  *label.UserPrep
	Spam      bool
}

// FanoutConfig parameterizes the sharded topology.
type FanoutConfig struct {
	// Shards is the shard count (min 1).
	Shards int
	// Workers, when set, moves each shard's extract step into a worker
	// subprocess (proc mode): the shard goroutine ships every micro-batch
	// to its worker and reads the results back. Nil extracts in-process.
	// The fanout owns the fleet and closes it.
	Workers Transport
	// Pipeline is the per-runner pipeline configuration; the fanout
	// stamps Shard itself ("1".."N" for shards, "coord" for the
	// coordinator).
	Pipeline pipeline.Config
	// Monitor supplies stateless feature extraction for shard workers.
	Monitor *core.Monitor
	// Prepper supplies label precompute for shard workers.
	Prepper *label.Prepper
	// Complete runs on the coordinator for every capture, in stream
	// order, before labeling: stateful feature completion, capture-store
	// append, WAL append.
	Complete func(it *Item)
	// Label rule-labels one merged micro-batch, in stream order, setting
	// each item's Spam.
	Label func(items []Item)
	// Observe feeds one labeled capture to the online detector.
	Observe func(it *Item)
}

// Fanout is the sharded pipeline: N shard runners (stateless extraction +
// label precompute over value-partitioned captures) feeding a coordinator
// runner (merge → label → detect) through one shared queue.
//
//	Ingest ──ring──▶ shard 1..N ("extract") ──▶ merge ─▶ label ─▶ detect
//
// Shards own disjoint node subsets, so every capture visits exactly one
// shard; the merge stage's sequence-number reorder restores the global
// stream order those parallel shards scrambled. Where a shard's extract
// step runs — on the shard goroutine or behind an RPC to a worker
// subprocess — is the only thing FanoutConfig.Workers changes.
type Fanout struct {
	cfg    FanoutConfig
	ring   *Ring
	seq    uint64
	queues []*pipeline.Queue[Item]
	shards []*pipeline.Runner
	merge  *pipeline.Queue[Item]
	coord  *pipeline.Runner

	// mu guards what the shard goroutines report about the worker fleet.
	// err is its first failure (a batch whose retries ran out), reported
	// by Err, Drain and Close; health is each proc-mode shard's /healthz
	// row, reported by ShardHealth (nil in-process).
	mu     sync.Mutex
	err    error
	health []metrics.ShardHealth

	closeOnce sync.Once
	closeErr  error
}

// NewFanout builds and starts the sharded topology.
func NewFanout(cfg FanoutConfig) *Fanout {
	f := &Fanout{cfg: cfg, ring: NewRing(cfg.Shards)}
	n := f.ring.Shards()

	ccfg := cfg.Pipeline
	ccfg.Shard = "coord"
	coord := pipeline.NewRunner(ccfg)
	f.merge = pipeline.NewQueue[Item](coord, "merge")
	qLabel := pipeline.NewQueue[Item](coord, "label")
	qDetect := pipeline.NewQueue[Item](coord, "detect")

	// merge: reorder by ingest sequence. Only this stage goroutine
	// touches the reorder.
	ro := &reorder{next: 1}
	pipeline.Through(coord, "merge", f.merge, qLabel, func(batch []Item) []Item {
		return ro.release(batch, cfg.Complete)
	})
	pipeline.Through(coord, "label", qLabel, qDetect, func(items []Item) []Item {
		cfg.Label(items)
		return items
	})
	pipeline.Sink(coord, "detect", qDetect, func(items []Item) {
		for i := range items {
			cfg.Observe(&items[i])
		}
	})
	coord.Start()
	f.coord = coord

	if cfg.Workers != nil {
		f.health = make([]metrics.ShardHealth, n)
	}
	for s := 0; s < n; s++ {
		scfg := cfg.Pipeline
		scfg.Shard = strconv.Itoa(s + 1)
		r := pipeline.NewRunner(scfg)
		q := pipeline.NewQueue[Item](r, "extract")
		// seen tracks authors this shard already shipped a profile prep
		// for. Captures of one author always land on the same shard (the
		// ring keys on the receiver node, but an author's first capture is
		// its global first appearance regardless of which shard saw it —
		// see AddBatchPrepared's inline-recompute contract for the rest).
		seen := make(map[socialnet.AccountID]struct{})
		shardLabel := scfg.Shard
		extract := func(batch []Item) {
			for _, it := range batch {
				sp := it.C.Trace.StartSpan("shard_extract")
				sp.SetAttr("shard", shardLabel)
				it.C.Trace.SetAttr("shard", shardLabel)
				it.Vec = cfg.Monitor.StatelessVector(it.C)
				it.TweetPrep = cfg.Prepper.PrepTweet(it.C.Tweet)
				profile := it.C.SenderSnapshot()
				if profile == nil {
					profile = it.C.Sender
				}
				if profile != nil {
					if _, ok := seen[profile.ID]; !ok {
						seen[profile.ID] = struct{}{}
						up := cfg.Prepper.PrepUser(profile)
						it.UserPrep = &up
					}
				}
				sp.End()
				// it is a fresh copy per iteration; popBatch reuses its
				// batch buffer, so pushing the copy is what keeps the
				// merge queue safe.
				_ = f.merge.Push(it)
			}
		}
		if cfg.Workers != nil {
			extract = f.remoteExtract(s, shardLabel, extract)
		}
		pipeline.Sink(r, "extract", q, extract)
		r.Start()
		f.queues = append(f.queues, q)
		f.shards = append(f.shards, r)
	}
	return f
}

// reorder restores ingest order at the merge stage. next is the sequence
// number the stream is waiting on, and window[i] holds the arrival with
// sequence number next+i, or the zero Item while it is still out: Ingest
// numbers from 1, so Seq 0 marks a gap. ready is release's output. Once
// grown, neither allocates per capture.
type reorder struct {
	next   uint64
	window []Item
	ready  []Item
}

// release files batch's items by sequence number and returns the run the
// stream was waiting on, in order, each passed to complete in place. The
// returned slice is valid until the next call: the merge stage pushes
// every item of it downstream before it calls release again.
func (r *reorder) release(batch []Item, complete func(*Item)) []Item {
	for _, it := range batch {
		off := int(it.Seq - r.next)
		for len(r.window) <= off {
			r.window = append(r.window, Item{})
		}
		r.window[off] = it
	}
	n := 0
	for n < len(r.window) && r.window[n].Seq != 0 {
		n++
	}
	r.ready = append(r.ready[:0], r.window[:n]...)
	clear(r.window[copy(r.window, r.window[n:]):])
	r.window = r.window[:len(r.window)-n]
	r.next += uint64(n)
	for i := range r.ready {
		complete(&r.ready[i])
	}
	return r.ready
}

// Ingest routes one freshly matched capture to its owning shard. It must
// be called from a single goroutine (the engine's); the assigned sequence
// numbers define the canonical merge order. Routing keys on the receiver
// node id (the honeypot that captured the tweet), falling back to the
// author id for captures with no resolvable receiver.
func (f *Fanout) Ingest(c *core.Capture) {
	f.seq++
	id := c.Tweet.AuthorID
	if r := c.ReceiverSnapshot(); r != nil {
		id = r.ID
	}
	_ = f.queues[f.ring.Owner(id)].Push(Item{Seq: f.seq, C: c})
}

// latch records the run's first worker-fleet failure.
func (f *Fanout) latch(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// Err returns the first worker-fleet failure latched so far, without
// waiting for anything; always nil in-process.
func (f *Fanout) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// ShardHealth returns a copy of each proc-mode shard worker's health row,
// indexed by shard, as the retry loop last saw it; nil in-process.
func (f *Fanout) ShardHealth() []metrics.ShardHealth {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.health)
}

// Drain blocks until every capture ingested so far has fully cleared the
// topology: shard runners first (so all merge pushes happened), then the
// coordinator. After Drain, the merge stage's reorder window is empty —
// it can only hold gaps while some earlier capture is still inside a
// shard runner. It returns Err: a failed worker batch was extracted
// in-process, so the drain itself always completes.
func (f *Fanout) Drain() error {
	for _, r := range f.shards {
		r.Drain()
	}
	f.coord.Drain()
	return f.Err()
}

// Close shuts the topology down in dependency order: shard queues close,
// shard runners finish (after which no goroutine can push to the shared
// merge queue), then the merge queue closes and the coordinator finishes —
// so everything ingested before Close still clears the tail — and last
// the worker fleet, if any, stops. Close is idempotent.
func (f *Fanout) Close() error {
	f.closeOnce.Do(func() {
		for _, q := range f.queues {
			q.Close()
		}
		for _, r := range f.shards {
			r.Wait()
		}
		f.merge.Close()
		f.coord.Wait()
		f.closeErr = f.Err()
		if f.cfg.Workers != nil {
			f.closeErr = errors.Join(f.closeErr, f.cfg.Workers.Close())
		}
	})
	return f.closeErr
}
