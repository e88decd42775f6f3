package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// pipelineFixture registers the pipeline series the watchdog scans and
// returns setters for one (stage, shard).
type pipelineFixture struct {
	depth        *metrics.Gauge
	items        *metrics.Counter
	backpressure *metrics.Counter
}

func newPipelineFixture(reg *metrics.Registry, stage, shard string) *pipelineFixture {
	return &pipelineFixture{
		depth:        reg.GaugeVec("ph_pipeline_queue_depth", "d", "stage", "shard").With(stage, shard),
		items:        reg.CounterVec("ph_pipeline_items_total", "i", "stage", "shard").With(stage, shard),
		backpressure: reg.CounterVec("ph_pipeline_backpressure_total", "b", "stage", "shard").With(stage, shard),
	}
}

func stallCount(reg *metrics.Registry, stage, shard string) float64 {
	for _, fam := range reg.Snapshot() {
		if fam.Name != "ph_watchdog_stall_total" {
			continue
		}
		for _, s := range fam.Samples {
			match := 0
			for _, l := range s.Labels {
				if (l.Name == "stage" && l.Value == stage) || (l.Name == "shard" && l.Value == shard) {
					match++
				}
			}
			if match == 2 {
				return s.Value
			}
		}
	}
	return 0
}

func TestWatchdogDetectsStall(t *testing.T) {
	reg := metrics.NewRegistry()
	fx := newPipelineFixture(reg, "match", "1")
	var logBuf bytes.Buffer
	w := NewWatchdog(WatchdogConfig{Metrics: reg, Logger: trace.NewLogger(&logBuf, trace.LevelWarn)})

	// Queue saturated, no progress across a full window: stall on the
	// second scan (the first only establishes the baseline).
	fx.depth.Set(8)
	fx.items.Add(100)
	if got := w.Scan(); len(got) != 0 {
		t.Fatalf("first scan has no window, got %v", got)
	}
	got := w.Scan()
	if len(got) != 1 || got[0] != "match;1" {
		t.Fatalf("stall not detected: %v", got)
	}
	if v := stallCount(reg, "match", "1"); v != 1 {
		t.Fatalf("ph_watchdog_stall_total = %v, want 1", v)
	}
	if !strings.Contains(logBuf.String(), "pipeline stage stalled") ||
		!strings.Contains(logBuf.String(), `reason=stalled`) {
		t.Fatalf("stall warning missing: %s", logBuf.String())
	}
}

func TestWatchdogProgressSuppressesStall(t *testing.T) {
	reg := metrics.NewRegistry()
	fx := newPipelineFixture(reg, "label", "2")
	w := NewWatchdog(WatchdogConfig{Metrics: reg})

	fx.depth.Set(5)
	fx.items.Add(10)
	w.Scan()

	// Item counter advanced: consuming, not stalled.
	fx.items.Add(1)
	if got := w.Scan(); len(got) != 0 {
		t.Fatalf("progressing stage flagged: %v", got)
	}

	// Queue drained: idle, not stalled.
	fx.depth.Set(0)
	w.Scan()
	if got := w.Scan(); len(got) != 0 {
		t.Fatalf("idle stage flagged: %v", got)
	}
}

func TestWatchdogSaturatedReason(t *testing.T) {
	reg := metrics.NewRegistry()
	fx := newPipelineFixture(reg, "detect", "1")
	var logBuf bytes.Buffer
	w := NewWatchdog(WatchdogConfig{Metrics: reg, Logger: trace.NewLogger(&logBuf, trace.LevelWarn)})

	fx.depth.Set(64)
	fx.items.Add(7)
	w.Scan()
	// Producers actively blocked on the dead stage.
	fx.backpressure.Add(3)
	if got := w.Scan(); len(got) != 1 {
		t.Fatalf("saturated stall not detected: %v", got)
	}
	if !strings.Contains(logBuf.String(), "reason=saturated") {
		t.Fatalf("saturated reason missing: %s", logBuf.String())
	}
}

func TestWatchdogNilSafe(t *testing.T) {
	var w *Watchdog
	if got := w.Scan(); got != nil {
		t.Fatalf("nil Scan = %v", got)
	}
	stop := w.Start()
	stop()
}

func TestWatchdogStartScansOnInterval(t *testing.T) {
	reg := metrics.NewRegistry()
	fx := newPipelineFixture(reg, "match", "1")
	fx.depth.Set(4)
	fx.items.Add(1)
	w := NewWatchdog(WatchdogConfig{Metrics: reg, Interval: 2 * time.Millisecond})
	stop := w.Start()
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for stallCount(reg, "match", "1") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if stallCount(reg, "match", "1") == 0 {
		t.Fatal("ticker-driven scan never fired a stall")
	}
}
