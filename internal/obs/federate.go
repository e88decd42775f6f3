// Package obs is the fleet observability layer (DESIGN.md §16): it makes
// the sharded deployment mode — where worker subprocesses own their own
// pipelines, spans, and runtimes — watchable from one place. Three
// pillars:
//
//   - Federator scrapes every proc-mode shard worker's /metrics on an
//     interval, merges the payloads with the coordinator's own registry
//     (metrics.MergeInstances semantics: counters and histograms sum to
//     fleet totals, gauges stay per-shard), and serves the rollup plus an
//     aggregated /healthz that turns 503 with per-shard detail when any
//     worker is down, restarting, or stale.
//   - Collector (runtime.go) samples runtime/metrics into ph_runtime_*
//     series in every process, so heap, GC, goroutine, and scheduler
//     pressure show up in the same federated view.
//   - Watchdog (watchdog.go) turns pipeline instrumentation into stall
//     detection: a saturated queue whose stage stopped advancing emits
//     ph_watchdog_stall_total and a structured warning.
//
// Everything here is pull-based and strictly off the capture path: the
// scrape loop runs on its own goroutine with a bounded per-worker
// timeout, so a hung worker admin endpoint degrades health reporting —
// it never stalls the rotation barrier.
package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// Target is one fleet member to scrape.
type Target struct {
	// Name is the member's shard identity ("1".."N"), used as the
	// MergeLabel value on its per-instance series and as the per-shard key
	// in the aggregated health view.
	Name string
	// URL is the member's admin base URL (the worker's loopback extract
	// server); /metrics is appended for scrapes.
	URL string
}

// Worker scrape statuses reported by the aggregated /healthz.
const (
	// StatusOK: the last scrape inside the staleness window succeeded.
	StatusOK = "ok"
	// StatusPending: the target is known but has never been scraped (the
	// first interval hasn't elapsed).
	StatusPending = "pending"
	// StatusDown: the most recent scrape attempt failed.
	StatusDown = "down"
	// StatusStale: scrapes stopped succeeding long enough ago that the
	// cached payload can't be trusted (StaleAfter).
	StatusStale = "stale"
	// StatusRestarting: the target's URL changed since its last successful
	// scrape — the coordinator respawned the worker — and the replacement
	// hasn't answered yet.
	StatusRestarting = "restarting"
)

// FederatorConfig parameterizes a Federator.
type FederatorConfig struct {
	// Local is the coordinator's own registry, merged into every rollup as
	// the instance named LocalName. Nil means metrics.Default().
	Local *metrics.Registry
	// LocalName is the coordinator's instance name (default "coord").
	LocalName string
	// Targets supplies the current worker fleet; called at each scrape so
	// worker restarts (new loopback ports) are picked up. Nil or
	// empty-returning means an unsharded process: the federator serves the
	// local registry untouched.
	Targets func() []Target
	// Interval is the scrape period for Start (default 2s).
	Interval time.Duration
	// Timeout bounds each worker scrape (default 1s). The bound is per
	// target and the fetches run concurrently, so one hung worker delays a
	// scrape round by at most Timeout and the capture path by nothing.
	Timeout time.Duration
	// StaleAfter is how old a cached worker payload may grow before the
	// worker is reported stale (default 3×Interval).
	StaleAfter time.Duration
	// Logger receives scrape-failure warnings; nil drops them.
	Logger *trace.Logger
	// Clock supplies scrape timestamps; nil means time.Now.
	Clock func() time.Time
	// Fetch overrides the HTTP fetch (tests). Nil uses http.Get with the
	// scrape context.
	Fetch func(ctx context.Context, url string) ([]byte, error)
}

func (c FederatorConfig) withDefaults() FederatorConfig {
	if c.Local == nil {
		c.Local = metrics.Default()
	}
	if c.LocalName == "" {
		c.LocalName = "coord"
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = time.Second
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 3 * c.Interval
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Fetch == nil {
		c.Fetch = httpFetch
	}
	return c
}

// targetState is the cached scrape outcome for one fleet member.
type targetState struct {
	name string
	url  string
	// exposition is the last successfully parsed payload (nil before the
	// first success and after a URL change).
	exposition *metrics.Exposition
	lastOK     time.Time
	lastErr    string
	scraped    bool // any attempt completed at this URL
}

// Federator merges the local registry with scraped worker payloads into
// one fleet-level metrics and health view.
type Federator struct {
	cfg FederatorConfig

	mu     sync.Mutex
	states map[string]*targetState // keyed by Target.Name
}

// NewFederator creates a federator from cfg.
func NewFederator(cfg FederatorConfig) *Federator {
	return &Federator{cfg: cfg.withDefaults(), states: make(map[string]*targetState)}
}

// SetTargets installs (or replaces) the fleet supplier. The sniffer calls
// this after the proc coordinator spawned its workers, when the admin
// URLs become known.
func (f *Federator) SetTargets(targets func() []Target) {
	f.mu.Lock()
	f.cfg.Targets = targets
	f.mu.Unlock()
}

// httpFetch is the production scrape: one GET bounded by the context.
func httpFetch(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("obs: scrape %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// syncTargets reconciles the state table with the current fleet: new
// targets enter as pending, a changed URL (worker respawn) drops the
// cached payload and marks the member restarting, and members no longer
// in the fleet are forgotten.
func (f *Federator) syncTargets() []*targetState {
	var targets []Target
	if f.cfg.Targets != nil {
		targets = f.cfg.Targets()
	}
	live := make(map[string]struct{}, len(targets))
	out := make([]*targetState, 0, len(targets))
	for _, t := range targets {
		live[t.Name] = struct{}{}
		st := f.states[t.Name]
		if st == nil {
			st = &targetState{name: t.Name, url: t.URL}
			f.states[t.Name] = st
		} else if st.url != t.URL {
			// The worker was respawned on a new port: its old payload
			// described a dead process.
			st.url = t.URL
			st.exposition = nil
			st.scraped = false
			st.lastErr = ""
		}
		out = append(out, st)
	}
	for name := range f.states {
		if _, ok := live[name]; !ok {
			delete(f.states, name)
		}
	}
	return out
}

// ScrapeOnce runs one scrape round: every current target fetched
// concurrently, each bounded by the per-target timeout. It returns the
// number of targets that answered successfully.
func (f *Federator) ScrapeOnce(ctx context.Context) int {
	f.mu.Lock()
	states := f.syncTargets()
	fetch := f.cfg.Fetch
	timeout := f.cfg.Timeout
	logger := f.cfg.Logger
	clock := f.cfg.Clock
	type job struct {
		name, url string
	}
	jobs := make([]job, len(states))
	for i, st := range states {
		jobs[i] = job{st.name, st.url}
	}
	f.mu.Unlock()

	type result struct {
		name string
		exp  *metrics.Exposition
		err  error
	}
	results := make([]result, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			fctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			body, err := fetch(fctx, j.url+"/metrics")
			if err == nil {
				var exp *metrics.Exposition
				if exp, err = metrics.ParseExposition(bytes.NewReader(body)); err == nil {
					results[i] = result{name: j.name, exp: exp}
					return
				}
			}
			results[i] = result{name: j.name, err: err}
		}(i, j)
	}
	wg.Wait()

	now := clock()
	ok := 0
	f.mu.Lock()
	for _, res := range results {
		st := f.states[res.name]
		if st == nil { // target removed mid-scrape
			continue
		}
		st.scraped = true
		if res.err != nil {
			st.lastErr = res.err.Error()
			continue
		}
		st.exposition = res.exp
		st.lastOK = now
		st.lastErr = ""
		ok++
	}
	f.mu.Unlock()
	for _, res := range results {
		if res.err != nil && logger != nil {
			logger.Warn("worker scrape failed", "shard", res.name, "error", res.err)
		}
	}
	return ok
}

// Start launches the scrape loop on its own goroutine and returns its
// stop function. The loop is entirely off the capture path.
func (f *Federator) Start() (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(f.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				f.ScrapeOnce(ctx)
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// localExposition renders and re-parses the local registry so it merges
// through the exact path scraped payloads do (and its gauges pick up the
// coordinator's MergeLabel).
func (f *Federator) localExposition() *metrics.Exposition {
	var buf bytes.Buffer
	if err := f.cfg.Local.WriteText(&buf); err != nil {
		return nil
	}
	exp, err := metrics.ParseExposition(&buf)
	if err != nil {
		return nil
	}
	return exp
}

// Rollup merges the local registry with every cached worker payload into
// the fleet-level snapshot.
func (f *Federator) Rollup() []metrics.FamilySnapshot {
	instances := []metrics.Instance{{Name: f.cfg.LocalName, Exposition: f.localExposition()}}
	f.mu.Lock()
	names := make([]string, 0, len(f.states))
	for name := range f.states {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		instances = append(instances, metrics.Instance{Name: name, Exposition: f.states[name].exposition})
	}
	f.mu.Unlock()
	return metrics.MergeInstances(instances)
}

// federated reports whether any worker target has ever been installed —
// before that the federator is a transparent shim over the local
// registry.
func (f *Federator) federated() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cfg.Targets != nil
}

// Handler serves /metrics: the plain local registry until targets are
// installed, the fleet rollup afterwards.
func (f *Federator) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", metrics.TextContentType)
		if !f.federated() {
			_ = f.cfg.Local.WriteText(w)
			return
		}
		_ = metrics.WriteTextSnapshots(w, f.Rollup())
	})
}

// WorkerHealth is one fleet member's row in the aggregated health view.
type WorkerHealth struct {
	Shard  string `json:"shard"`
	URL    string `json:"url"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// LastScrapeAgeSeconds is the age of the newest successful scrape;
	// nil when the member never answered.
	LastScrapeAgeSeconds *float64 `json:"last_scrape_age_seconds,omitempty"`
}

// FleetHealth is the aggregated /healthz body: the coordinator's own
// liveness fields plus one row per worker.
type FleetHealth struct {
	metrics.Health
	Workers []WorkerHealth `json:"workers,omitempty"`
}

// health builds the aggregated body and reports whether every member is
// healthy.
func (f *Federator) health(extras []func(*metrics.Health)) (FleetHealth, bool) {
	h := FleetHealth{Health: metrics.CurrentHealth()}
	for _, extra := range extras {
		if extra != nil {
			extra(&h.Health)
		}
	}
	if h.WAL != nil && h.WAL.LastSyncError != "" {
		h.Status = "degraded"
	}

	f.mu.Lock()
	names := make([]string, 0, len(f.states))
	for name := range f.states {
		names = append(names, name)
	}
	sort.Strings(names)
	now := f.cfg.Clock()
	stale := f.cfg.StaleAfter
	allOK := true
	for _, name := range names {
		st := f.states[name]
		wh := WorkerHealth{Shard: st.name, URL: st.url, Error: st.lastErr}
		switch {
		case !st.scraped && st.exposition == nil && st.lastErr == "":
			if st.lastOK.IsZero() {
				wh.Status = StatusPending
			} else {
				wh.Status = StatusRestarting
			}
		case st.lastErr != "":
			wh.Status = StatusDown
		case now.Sub(st.lastOK) > stale:
			wh.Status = StatusStale
		default:
			wh.Status = StatusOK
		}
		if !st.lastOK.IsZero() {
			age := now.Sub(st.lastOK).Seconds()
			wh.LastScrapeAgeSeconds = &age
		}
		if wh.Status != StatusOK {
			allOK = false
		}
		h.Workers = append(h.Workers, wh)
	}
	f.mu.Unlock()

	if !allOK {
		h.Status = "degraded"
	}
	// Worker health alone drives the status code: a local WAL sync error
	// marks the body degraded (matching metrics.HealthHandlerFunc) but the
	// process is still alive and serving.
	return h, allOK
}

// HealthHandler serves the aggregated /healthz: 200 while the local
// process and every worker are healthy, 503 with per-shard detail when
// any worker is down, restarting, pending, or stale. Extras enrich the
// local section exactly as metrics.HealthHandlerFunc applies them (the
// WAL hook).
func (f *Federator) HealthHandler(extras ...func(*metrics.Health)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		h, ok := f.health(extras)
		w.Header().Set("Content-Type", "application/json")
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(h)
	})
}
