package pseudohoneypot

import (
	"sync/atomic"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/shard"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/store"
)

// tail is the stateful end of the stage graph (DESIGN.md §12): every
// capture — live, replayed from a recording, or recovered from the WAL
// tail of a restart — reaches it through the fanout, and its
// order-dependent effects happen here, once, in three steps: complete,
// label, observe.
//
// The order contract: each step sees captures in stream order, from one
// goroutine at a time (the fanout's merge, label and detect stages). Every
// structure a step touches is private to that step, so the steps may run
// concurrently with each other but never with themselves.
type tail struct {
	monitor *core.Monitor
	labels  *label.Store
	prep    *label.Prepper
	online  *core.OnlineDetector // nil: the observe step is a no-op

	// wal receives every completed capture. It stays nil while recovery
	// replays the log through this same tail (those captures are already
	// durable) and is set once recovery is done.
	wal *store.Store
	// walFailed latches a WAL append the store could not land even on a
	// fresh segment; the next hour boundary then cuts a checkpoint, which
	// makes the lost capture durable as state. Set by the complete step,
	// read and cleared by the delivery goroutine.
	walFailed atomic.Bool
	// lastCaptured is the newest completed tweet id — the checkpoint's
	// tweet watermark, read by the delivery goroutine after a drain.
	lastCaptured socialnet.TweetID

	// Profile-epilogue bookkeeping (Durability.RecordRotations): the
	// accounts every WAL'd capture referenced, in first-appearance order,
	// read at Close after the stages have stopped.
	recordProfiles bool
	profSeen       map[socialnet.AccountID]struct{}
	profIDs        []socialnet.AccountID
}

// complete finishes one capture: the stateful features, the capture store,
// and — in extraction order, the order recovery must replay to rebuild the
// extractor state — the WAL.
func (t *tail) complete(it *shard.Item) {
	c := it.C
	t.monitor.CompleteCapture(c, it.Vec)
	t.monitor.Store().Append(c)
	if c.Tweet.ID > t.lastCaptured {
		t.lastCaptured = c.Tweet.ID
	}
	if t.wal != nil {
		t.walAppend(c)
	}
}

// walAppend logs one freshly completed capture. The WAL persists the
// frozen profile snapshots, not the live accounts: replay re-extracts
// against exactly the values the original extraction read.
//
// The store retries a failed write or fsync itself, rewriting every
// unsynced record into a fresh segment. An error here means that retry
// failed too — the backend is down. The store's append_errors counter
// records it, and walFailed moves the next checkpoint up to the next
// hour boundary; without it the capture would be missing from the
// replayable history, a hole the recovery watermark would silently skip.
func (t *tail) walAppend(c *core.Capture) {
	rec := store.CaptureRecord{
		Tweet:    *c.Tweet,
		Sender:   c.SenderSnapshot(),
		Receiver: c.ReceiverSnapshot(),
		Groups:   c.Groups,
		Src:      c.Source,
	}
	if err := t.wal.AppendCapture(&rec); err != nil {
		t.walFailed.Store(true)
	}
	if t.recordProfiles {
		t.trackProfile(c.Tweet.AuthorID)
		if r := c.ReceiverSnapshot(); r != nil {
			t.trackProfile(r.ID)
		}
	}
}

// trackProfile records an account id for the end-of-run profile epilogue
// in first-appearance order.
func (t *tail) trackProfile(id socialnet.AccountID) {
	if t.profSeen == nil {
		t.profSeen = make(map[socialnet.AccountID]struct{})
	}
	if _, ok := t.profSeen[id]; ok {
		return
	}
	t.profSeen[id] = struct{}{}
	t.profIDs = append(t.profIDs, id)
}

// label joins one micro-batch into the incremental label store and sets
// each item's provisional verdict. Batch boundaries never change results
// (AddBatchPrepared is batching-invariant).
func (t *tail) label(items []shard.Item) {
	tweets := make([]*socialnet.Tweet, len(items))
	authors := make([]*socialnet.Account, len(items))
	profiles := make([]*socialnet.Account, len(items))
	tweetPreps := make([]label.TweetPrep, len(items))
	userPreps := make([]*label.UserPrep, len(items))
	for i := range items {
		c := items[i].C
		tweets[i], authors[i], profiles[i] = c.Tweet, c.Sender, c.SenderSnapshot()
		if authors[i] == nil {
			// Only an adopted capture can have a snapshot without a live
			// sender: WAL replay runs before the re-seeded simulation has
			// recreated accounts spawned mid-run. Index the frozen profile
			// in its place — first-appearance order is what the cluster
			// indices depend on — and let the Snapshot-time resolver rebind
			// the id once the re-run recreates the account.
			authors[i] = profiles[i]
		}
		tweetPreps[i], userPreps[i] = items[i].TweetPrep, items[i].UserPrep
	}
	for i, spam := range t.labels.AddBatchPrepared(tweets, authors, profiles, tweetPreps, userPreps) {
		items[i].Spam = spam
	}
}

// observe feeds one labeled capture to the online detector.
func (t *tail) observe(it *shard.Item) {
	if t.online != nil {
		// Errors only surface before the window holds both classes; the
		// window still fills, so ignore them.
		_ = t.online.Observe(it.C, it.Spam)
	}
}
