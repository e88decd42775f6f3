package obs

import (
	"math"
	"runtime"
	rtm "runtime/metrics"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
)

func sampleValue(reg *metrics.Registry, name string) (metrics.Sample, bool) {
	for _, fam := range reg.Snapshot() {
		if fam.Name == name && len(fam.Samples) > 0 {
			return fam.Samples[0], true
		}
	}
	return metrics.Sample{}, false
}

func TestCollectorPublishesRuntimeSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewCollector(reg)
	runtime.GC() // guarantee at least one cycle and one pause
	c.Collect()

	if s, ok := sampleValue(reg, "ph_runtime_heap_bytes"); !ok || s.Value <= 0 {
		t.Fatalf("heap bytes not published: %+v ok=%v", s, ok)
	}
	if s, ok := sampleValue(reg, "ph_runtime_goroutines"); !ok || s.Value < 1 {
		t.Fatalf("goroutines not published: %+v ok=%v", s, ok)
	}
	cycles, ok := sampleValue(reg, "ph_runtime_gc_cycles_total")
	if !ok || cycles.Value < 1 {
		t.Fatalf("gc cycles not published: %+v ok=%v", cycles, ok)
	}
	if s, ok := sampleValue(reg, "ph_runtime_gc_pause_seconds"); !ok || s.Count == 0 {
		t.Fatalf("gc pause histogram empty after forced GC: %+v ok=%v", s, ok)
	}

	// Delta semantics: a second Collect with no new cycles must not
	// re-count the cumulative totals.
	c.Collect()
	again, _ := sampleValue(reg, "ph_runtime_gc_cycles_total")
	if again.Value >= 2*cycles.Value && cycles.Value > 0 {
		t.Fatalf("gc cycles double-counted: %v then %v", cycles.Value, again.Value)
	}
}

func TestCollectorNilSafe(t *testing.T) {
	var c *Collector
	c.Collect()
	stop := c.Start(time.Millisecond)
	stop()
}

func TestCollectorStartSamples(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewCollector(reg)
	stop := c.Start(time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s, ok := sampleValue(reg, "ph_runtime_goroutines"); ok && s.Value > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("Start never sampled")
}

func TestCollectPausesObservesDeltas(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewCollector(reg)
	h := &rtm.Float64Histogram{
		Counts:  []uint64{2, 1},
		Buckets: []float64{0, 1e-3, 1e-2},
	}
	c.collectPauses(h)
	s, _ := sampleValue(reg, "ph_runtime_gc_pause_seconds")
	if s.Count != 3 {
		t.Fatalf("pause count = %d, want 3", s.Count)
	}
	// Same cumulative state again: no new observations.
	c.collectPauses(h)
	if s, _ = sampleValue(reg, "ph_runtime_gc_pause_seconds"); s.Count != 3 {
		t.Fatalf("cumulative histogram re-observed: count = %d", s.Count)
	}
	// One more pause in the second bucket: exactly one delta observation.
	h.Counts[1] = 2
	c.collectPauses(h)
	if s, _ = sampleValue(reg, "ph_runtime_gc_pause_seconds"); s.Count != 4 {
		t.Fatalf("delta not observed: count = %d", s.Count)
	}
}

func TestCollectSchedLatencyQuantiles(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewCollector(reg)
	h := &rtm.Float64Histogram{
		Counts:  []uint64{90, 9, 1},
		Buckets: []float64{0, 1e-6, 1e-4, math.Inf(1)},
	}
	c.collectSchedLatency(h)
	got := map[string]float64{}
	for _, fam := range reg.Snapshot() {
		if fam.Name != "ph_runtime_sched_latency_seconds" {
			continue
		}
		for _, s := range fam.Samples {
			got[s.Labels[0].Value] = s.Value
		}
	}
	if got["p50"] != 1e-6 {
		t.Fatalf("p50 = %v, want 1e-6", got["p50"])
	}
	if got["p95"] != 1e-4 {
		t.Fatalf("p95 = %v, want 1e-4", got["p95"])
	}
	if got["max"] != 1e-4 {
		t.Fatalf("max = %v, want 1e-4 (last finite bound)", got["max"])
	}

	// All-zero histogram: nothing published, no division by zero.
	c2 := NewCollector(metrics.NewRegistry())
	c2.collectSchedLatency(&rtm.Float64Histogram{Counts: []uint64{0}, Buckets: []float64{0, 1}})
}

func TestHistQuantileAndBucketMid(t *testing.T) {
	h := &rtm.Float64Histogram{
		Counts:  []uint64{1, 1},
		Buckets: []float64{math.Inf(-1), 0.5, math.Inf(1)},
	}
	if q := histQuantile(h, 2, 0.5); q != 0.5 {
		t.Fatalf("histQuantile(0.5) = %v", q)
	}
	if q := histQuantile(h, 2, 1.0); q != 0.5 {
		t.Fatalf("+Inf bucket should fall back to its lower bound: %v", q)
	}
	if q := histQuantile(&rtm.Float64Histogram{Counts: []uint64{0}, Buckets: []float64{0, 1}}, 0, 0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v", q)
	}
	if m := bucketMid(math.Inf(-1), 2); m != 2 {
		t.Fatalf("bucketMid(-Inf, 2) = %v", m)
	}
	if m := bucketMid(3, math.Inf(1)); m != 3 {
		t.Fatalf("bucketMid(3, +Inf) = %v", m)
	}
	if m := bucketMid(1, 3); m != 2 {
		t.Fatalf("bucketMid(1, 3) = %v", m)
	}
}

// BenchmarkObsDisabled measures the disabled observability path: a nil
// collector sample must stay branch-cheap.
func BenchmarkObsDisabled(b *testing.B) {
	var c *Collector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Collect()
	}
}
