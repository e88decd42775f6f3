package shard

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

const (
	// maxRetries bounds how many times a failed batch is re-posted, each
	// time to a freshly restarted worker.
	maxRetries = 2
	// batchDeadline bounds one extract round-trip. A micro-batch takes a
	// worker milliseconds, so a worker that accepted the POST and has not
	// answered by now is hung: the attempt fails and the worker is
	// restarted, exactly as if it had died.
	batchDeadline = 5 * time.Second
)

// Transport abstracts a fleet of proc-mode shard workers so failure-edge
// tests can inject faults (truncated responses, dead or hung workers)
// without real processes. The production implementation (SpawnWorkers)
// runs worker subprocesses and POSTs over loopback HTTP.
type Transport interface {
	// Extract posts one batch request to a shard worker and returns the
	// raw NDJSON response. It must give up when ctx is done.
	Extract(ctx context.Context, shard int, body []byte) ([]byte, error)
	// Restart tears down and respawns one worker after a failure. The
	// replacement starts with empty shard-local state; the wire contract
	// tolerates that (redundant profile preps are idempotent).
	Restart(shard int) error
	// Close shuts the whole fleet down.
	Close() error
}

// adminLister is the optional Transport extension exposing each worker's
// admin base URL (the loopback extract server, which also mounts /metrics
// and /healthz) for the fleet federator to scrape.
type adminLister interface {
	AdminURLs() []string
}

// AdminURLs returns the per-shard worker admin base URLs, or nil when
// there are none (in-process shards, in-memory fault doubles). The slice
// is indexed by shard; a respawned worker changes its entry, which the
// federator treats as a restart.
func (f *Fanout) AdminURLs() []string {
	if al, ok := f.cfg.Workers.(adminLister); ok {
		return al.AdminURLs()
	}
	return nil
}

// remoteExtract is shard s's extract step in proc mode: frame the
// micro-batch, post it to the shard's worker, and push the results to the
// merge queue, restarting the worker and retrying on any failure. A batch
// whose retries run out is extracted by local — the in-process step, the
// same pure functions — so the merge stage never waits on a sequence
// number that will not come, and the failure is latched for Drain.
func (f *Fanout) remoteExtract(s int, shardLabel string, local func([]Item)) func([]Item) {
	reg := f.cfg.Pipeline.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	restarts := reg.CounterVec("ph_shard_worker_restarts_total",
		"Proc-mode shard workers torn down and respawned after a failed batch attempt.", "shard").With(shardLabel)
	retries := reg.CounterVec("ph_shard_batch_retries_total",
		"Extract batches re-posted after a transport error, a missed deadline or a truncated response.", "shard").With(shardLabel)
	captures := reg.CounterVec("ph_shard_batch_captures_total",
		"Captures whose extract results each shard worker returned.", "shard").With(shardLabel)
	reqCap := 0
	return func(batch []Item) {
		req := appendRequest(make([]byte, 0, reqCap), batch)
		reqCap = len(req)
		start := time.Now()
		var (
			results  []result
			workerNS int64
			err      error
		)
		for attempt := 0; attempt <= maxRetries; attempt++ {
			if attempt > 0 {
				retries.Inc()
				if err = f.cfg.Workers.Restart(s); err != nil {
					err = fmt.Errorf("restart: %w", err)
					continue
				}
				restarts.Inc()
			}
			ctx, cancel := context.WithTimeout(context.Background(), batchDeadline)
			var resp []byte
			resp, err = f.cfg.Workers.Extract(ctx, s, req)
			cancel()
			if err == nil {
				results, workerNS, err = readResults(resp, len(batch))
			}
			if err == nil {
				break
			}
		}
		if err != nil {
			f.latch(fmt.Errorf("shard %s: extract batch failed after %d retries: %w", shardLabel, maxRetries, err))
			local(batch)
			return
		}
		captures.Add(float64(len(batch)))
		end := time.Now()
		attrs := [...]trace.KV{
			{Key: "shard", Value: shardLabel},
			{Key: "worker_ns", Value: strconv.FormatInt(workerNS, 10)},
		}
		for i, it := range batch {
			it.C.Trace.SetAttr("shard", shardLabel)
			it.C.Trace.AddSpan("shard_extract", start, end, attrs[:]...)
			copy(it.Vec[:], results[i].Vec)
			it.TweetPrep, it.UserPrep = results[i].TweetPrep, results[i].UserPrep
			_ = f.merge.Push(it)
		}
	}
}
