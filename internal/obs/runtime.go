// Package obs watches one process from inside it (DESIGN.md §16), with
// two pillars that each run against the process's own registry:
//
//   - Collector samples runtime/metrics into ph_runtime_* series, so heap,
//     GC, goroutine and scheduler pressure show up beside the pipeline
//     metrics on the process's /metrics.
//   - Watchdog turns pipeline instrumentation into stall detection: a
//     saturated queue whose stage stopped advancing emits
//     ph_watchdog_stall_total and a structured warning.
//
// phsniffer runs both, twitterd the Collector. Proc-mode shard workers
// run neither: a worker is a pure function behind one RPC, and the
// coordinator learns what it needs to know about one — heap, GC cycles,
// health — from the RPC itself (internal/shard).
//
// Both pillars are pull-based and strictly off the capture path.
package obs

import (
	"math"
	rtm "runtime/metrics"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
)

// Runtime telemetry: a runtime/metrics-backed collector publishing the Go
// runtime's view of the process as ph_runtime_* series.

// Sampled runtime/metrics names. These are stable documented names; a
// runtime that drops one simply reports its sample as KindBad, which the
// collector skips.
const (
	rmHeapBytes  = "/memory/classes/heap/objects:bytes"
	rmGoroutines = "/sched/goroutines:goroutines"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCPauses   = "/gc/pauses:seconds"
	rmSchedLat   = "/sched/latencies:seconds"
)

// gcPauseBuckets are the export buckets for the GC pause histogram —
// micro to tens-of-milliseconds, the range where pauses start eating into
// the capture budget.
var gcPauseBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1,
}

// Collector samples runtime/metrics into a registry. A nil *Collector is
// a valid no-op (the disabled path), so call sites never guard.
type Collector struct {
	samples []rtm.Sample

	heapBytes  *metrics.Gauge
	goroutines *metrics.Gauge
	gcCycles   *metrics.Counter
	gcPause    *metrics.Histogram
	schedLat   *metrics.GaugeVec

	// Cumulative states mirrored from the runtime so each Collect feeds
	// only the delta into the exported series.
	lastGCCycles uint64
	lastPauses   map[float64]uint64 // pause-bucket upper bound → cumulative count
}

// NewCollector registers the ph_runtime_* series on reg (nil means
// metrics.Default()) and returns a collector ready to sample.
func NewCollector(reg *metrics.Registry) *Collector {
	if reg == nil {
		reg = metrics.Default()
	}
	c := &Collector{
		samples: []rtm.Sample{
			{Name: rmHeapBytes},
			{Name: rmGoroutines},
			{Name: rmGCCycles},
			{Name: rmGCPauses},
			{Name: rmSchedLat},
		},
		heapBytes: reg.Gauge("ph_runtime_heap_bytes",
			"Bytes of live heap objects (runtime/metrics heap/objects)."),
		goroutines: reg.Gauge("ph_runtime_goroutines",
			"Current goroutine count."),
		gcCycles: reg.Counter("ph_runtime_gc_cycles_total",
			"Completed GC cycles."),
		gcPause: reg.Histogram("ph_runtime_gc_pause_seconds",
			"Distribution of stop-the-world GC pause durations.", gcPauseBuckets),
		schedLat: reg.GaugeVec("ph_runtime_sched_latency_seconds",
			"Goroutine scheduling latency quantiles since process start.", "quantile"),
		lastPauses: make(map[float64]uint64),
	}
	return c
}

// Collect takes one sample of every runtime series and folds it into the
// registry. Safe to call from the ticker goroutine only (the
// cumulative mirrors are not locked); a nil receiver is a no-op.
func (c *Collector) Collect() {
	if c == nil {
		return
	}
	rtm.Read(c.samples)
	for i := range c.samples {
		s := &c.samples[i]
		switch s.Name {
		case rmHeapBytes:
			if s.Value.Kind() == rtm.KindUint64 {
				c.heapBytes.Set(float64(s.Value.Uint64()))
			}
		case rmGoroutines:
			if s.Value.Kind() == rtm.KindUint64 {
				c.goroutines.Set(float64(s.Value.Uint64()))
			}
		case rmGCCycles:
			if s.Value.Kind() == rtm.KindUint64 {
				v := s.Value.Uint64()
				if v > c.lastGCCycles {
					c.gcCycles.Add(float64(v - c.lastGCCycles))
					c.lastGCCycles = v
				}
			}
		case rmGCPauses:
			if s.Value.Kind() == rtm.KindFloat64Histogram {
				c.collectPauses(s.Value.Float64Histogram())
			}
		case rmSchedLat:
			if s.Value.Kind() == rtm.KindFloat64Histogram {
				c.collectSchedLatency(s.Value.Float64Histogram())
			}
		}
	}
}

// collectPauses converts the runtime's cumulative pause histogram into
// Observe calls on the exported histogram: each runtime bucket's count
// delta is observed at the bucket's midpoint, preserving counts exactly
// and durations to within a bucket width.
func (c *Collector) collectPauses(h *rtm.Float64Histogram) {
	for i, count := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		key := hi
		prev := c.lastPauses[key]
		if count <= prev {
			continue
		}
		delta := count - prev
		c.lastPauses[key] = count
		mid := bucketMid(lo, hi)
		for j := uint64(0); j < delta; j++ {
			c.gcPause.Observe(mid)
		}
	}
}

// collectSchedLatency reduces the runtime's cumulative scheduling-latency
// histogram to p50/p95/max gauges — quantiles are the operator-facing
// shape.
func (c *Collector) collectSchedLatency(h *rtm.Float64Histogram) {
	var total uint64
	maxBound := 0.0
	for i, count := range h.Counts {
		total += count
		if count > 0 {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				maxBound = hi
			} else {
				maxBound = h.Buckets[i]
			}
		}
	}
	if total == 0 {
		return
	}
	c.schedLat.With("p50").Set(histQuantile(h, total, 0.50))
	c.schedLat.With("p95").Set(histQuantile(h, total, 0.95))
	c.schedLat.With("max").Set(maxBound)
}

// histQuantile picks the upper bound of the bucket holding the q-th
// cumulative sample.
func histQuantile(h *rtm.Float64Histogram, total uint64, q float64) float64 {
	rank := uint64(q * float64(total))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, count := range h.Counts {
		cum += count
		if cum >= rank {
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return h.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// bucketMid is the representative observation value for a runtime bucket.
func bucketMid(lo, hi float64) float64 {
	if math.IsInf(lo, -1) {
		return hi
	}
	if math.IsInf(hi, 1) {
		return lo
	}
	return (lo + hi) / 2
}

// Start samples on an interval until the returned stop function is
// called. A nil receiver returns a no-op stop.
func (c *Collector) Start(interval time.Duration) (stop func()) {
	if c == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = 5 * time.Second
	}
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		c.Collect()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				c.Collect()
			}
		}
	}()
	return func() {
		close(done)
		<-stopped
	}
}
