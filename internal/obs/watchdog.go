package obs

import (
	"sort"
	"sync"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// Watchdog turns the pipeline's existing instrumentation into stall
// detection. Each scan reads the registry's ph_pipeline_queue_depth and
// ph_pipeline_items_total series per (stage, shard) and compares against
// the previous scan: a stage whose input queue holds items while its item
// counter did not advance across a full scan window has stopped consuming
// — the watchdog increments ph_watchdog_stall_total{stage,shard} and emits
// a structured warning (reason "saturated" when backpressure also advanced
// in the window, i.e. producers are actively blocked on the dead stage).
//
// A nil *Watchdog is a valid disabled receiver.
type Watchdog struct {
	reg      *metrics.Registry
	logger   *trace.Logger
	stalls   *metrics.CounterVec
	interval time.Duration

	mu   sync.Mutex
	prev map[string]stageProgress // (stage;shard) → last scan's view
}

// stageProgress is one (stage, shard)'s view at a scan.
type stageProgress struct {
	depth        float64
	items        float64
	backpressure float64
}

// WatchdogConfig parameterizes a Watchdog.
type WatchdogConfig struct {
	// Metrics is the registry scanned for pipeline series and given the
	// stall counter; nil means metrics.Default().
	Metrics *metrics.Registry
	// Logger receives stall warnings; nil drops them.
	Logger *trace.Logger
	// Interval is the scan period for Start (default 5s).
	Interval time.Duration
}

// NewWatchdog creates an enabled watchdog.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.Default()
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	return &Watchdog{
		reg:    cfg.Metrics,
		logger: cfg.Logger,
		stalls: cfg.Metrics.CounterVec("ph_watchdog_stall_total",
			"Pipeline stages detected stalled: queued input with no progress across a scan window.",
			"stage", "shard"),
		interval: cfg.Interval,
		prev:     make(map[string]stageProgress),
	}
}

// Scan runs one stall-detection pass and returns the stages flagged this
// pass as "stage;shard" keys. Exported so tests drive the window
// deterministically; Start calls it on a ticker.
func (w *Watchdog) Scan() []string {
	if w == nil {
		return nil
	}
	cur := make(map[string]stageProgress)
	type labeled struct{ stage, shard string }
	series := make(map[string]labeled)
	for _, fam := range w.reg.Snapshot() {
		var set func(p *stageProgress, v float64)
		switch fam.Name {
		case "ph_pipeline_queue_depth":
			set = func(p *stageProgress, v float64) { p.depth = v }
		case "ph_pipeline_items_total":
			set = func(p *stageProgress, v float64) { p.items = v }
		case "ph_pipeline_backpressure_total":
			set = func(p *stageProgress, v float64) { p.backpressure = v }
		default:
			continue
		}
		for _, s := range fam.Samples {
			var stage, shard string
			for _, l := range s.Labels {
				switch l.Name {
				case "stage":
					stage = l.Value
				case "shard":
					shard = l.Value
				}
			}
			key := stage + ";" + shard
			p := cur[key]
			set(&p, s.Value)
			cur[key] = p
			series[key] = labeled{stage, shard}
		}
	}

	var stalled []string
	w.mu.Lock()
	prev := w.prev
	w.prev = cur
	w.mu.Unlock()
	for key, p := range cur {
		last, seen := prev[key]
		if !seen {
			continue
		}
		if p.depth <= 0 || last.depth <= 0 {
			continue // empty queue at either edge: idle, not stalled
		}
		if p.items != last.items {
			continue // the stage advanced
		}
		stalled = append(stalled, key)
		l := series[key]
		w.stalls.With(l.stage, l.shard).Inc()
		reason := "stalled"
		if p.backpressure > last.backpressure {
			reason = "saturated"
		}
		if w.logger != nil {
			w.logger.Warn("pipeline stage stalled",
				"stage", l.stage, "shard", l.shard, "reason", reason,
				"queue_depth", p.depth, "items_total", p.items)
		}
	}
	sort.Strings(stalled)
	return stalled
}

// Start scans on the configured interval until the returned stop function
// is called. Nil-safe.
func (w *Watchdog) Start() (stop func()) {
	if w == nil {
		return func() {}
	}
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		ticker := time.NewTicker(w.interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				w.Scan()
			}
		}
	}()
	return func() {
		close(done)
		<-stopped
	}
}
