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
	// Extract posts one batch request to a shard worker and returns its
	// undecoded codec response (see wire.go). It must give up when ctx is
	// done.
	Extract(ctx context.Context, shard int, body []byte) ([]byte, error)
	// Restart tears down and respawns one worker after a failure. The
	// replacement starts with empty shard-local state; the wire contract
	// tolerates that (redundant profile preps are idempotent).
	Restart(shard int) error
	// Close shuts the whole fleet down.
	Close() error
}

// Proc-mode shard statuses, reported in the /healthz shards section.
const (
	statusOK         = "ok"         // the last batch was answered
	statusRestarting = "restarting" // inside a retry cycle
	statusFailed     = "failed"     // a batch ran out of retries; sticky
)

// remoteExtract is shard s's extract step in proc mode: frame the
// micro-batch, post it to the shard's worker, and push the results to the
// merge queue, restarting the worker and retrying on any failure. A batch
// whose retries run out is extracted by local — the in-process step, the
// same pure functions — so the merge stage never waits on a sequence
// number that will not come, and the failure is latched for Drain. The
// retry loop is also the only witness of the worker's health, so it keeps
// the shard's /healthz row, and an answered batch's telemetry feeds the
// worker's heap and GC gauges.
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
	heap := reg.GaugeVec("ph_shard_worker_heap_bytes",
		"Live heap of each shard worker process, from its last extract response.", "shard").With(shardLabel)
	gcCycles := reg.GaugeVec("ph_shard_worker_gc_cycles",
		"Completed GC cycles of each shard worker process, from its last extract response.", "shard").With(shardLabel)
	f.health[s] = metrics.ShardHealth{Shard: shardLabel, Status: statusOK}
	health := func(status string, err error, respawned int) {
		f.mu.Lock()
		defer f.mu.Unlock()
		h := &f.health[s]
		if h.Status != statusFailed {
			h.Status = status
		}
		if err != nil {
			h.LastError = err.Error()
		}
		h.Restarts += respawned
	}
	reqCap := 0
	return func(batch []Item) {
		req := appendRequest(make([]byte, 0, reqCap), batch)
		reqCap = len(req)
		start := time.Now()
		var (
			results []result
			tel     telemetry
			err     error
		)
		for attempt := 0; attempt <= maxRetries; attempt++ {
			if attempt > 0 {
				health(statusRestarting, err, 0)
				retries.Inc()
				if err = f.cfg.Workers.Restart(s); err != nil {
					err = fmt.Errorf("restart: %w", err)
					continue
				}
				restarts.Inc()
				health(statusRestarting, nil, 1)
			}
			ctx, cancel := context.WithTimeout(context.Background(), batchDeadline)
			var resp []byte
			resp, err = f.cfg.Workers.Extract(ctx, s, req)
			cancel()
			if err == nil {
				results, tel, err = readResults(resp, len(batch))
			}
			if err == nil {
				break
			}
		}
		if err != nil {
			health(statusFailed, err, 0)
			f.latch(fmt.Errorf("shard %s: extract batch failed after %d retries: %w", shardLabel, maxRetries, err))
			local(batch)
			return
		}
		health(statusOK, nil, 0)
		captures.Add(float64(len(batch)))
		heap.Set(float64(tel.HeapBytes))
		gcCycles.Set(float64(tel.GCCycles))
		end := time.Now()
		attrs := [...]trace.KV{
			{Key: "shard", Value: shardLabel},
			{Key: "worker_ns", Value: strconv.FormatUint(tel.ElapsedNS, 10)},
		}
		for i, it := range batch {
			it.C.Trace.SetAttr("shard", shardLabel)
			it.C.Trace.AddSpan("shard_extract", start, end, attrs[:]...)
			it.Vec = results[i].Vec
			it.TweetPrep, it.UserPrep = results[i].TweetPrep, results[i].UserPrep
			_ = f.merge.Push(it)
		}
	}
}
