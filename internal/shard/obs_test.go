package shard

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/obs"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/pipeline"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// pipelineConfig is the stage configuration the proc tests run under:
// small batches, so a few hours of traffic is many round-trips.
func pipelineConfig(reg *metrics.Registry) pipeline.Config {
	return pipeline.Config{FlushSize: 16, FlushInterval: time.Millisecond, Metrics: reg}
}

// TestProcCaptureTraceCarriesExtractSpan: a proc-mode capture trace has
// the same shard_extract span an in-process one has — timed around the
// RPC, tagged with the shard and the worker-side elapsed time from the
// response trailer — and /debug/traces serves it. (It replaces the
// per-epoch shard_epoch trace with its stitched worker spans.)
func TestProcCaptureTraceCarriesExtractSpan(t *testing.T) {
	tracer := trace.New(trace.Config{Enabled: true, Buffer: 4096})
	w, e, m := testWorldTraced(t, tracer)
	f := NewFanout(FanoutConfig{
		Shards:   2,
		Workers:  newMemTransport(2),
		Pipeline: pipelineConfig(metrics.NewRegistry()),
		Monitor:  m,
		Prepper:  testPrepper(),
		Complete: func(it *Item) { m.CompleteCapture(it.C, it.Vec) }, // finishes the trace
		Label:    func([]Item) {},
		Observe:  func(*Item) {},
	})
	e.OnHourStart(func(_ int, now time.Time) { m.Rotate(now, time.Hour) })
	cancel := e.Subscribe(func(tw *socialnet.Tweet) {
		if c := m.Match(tw, w.Account); c != nil {
			f.Ingest(c)
		}
	})
	defer cancel()
	e.RunHours(2)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	captures := 0
	for _, tr := range tracer.Recent() {
		if tr.Name != "capture" {
			continue // the hourly rotate traces
		}
		captures++
		sp, ok := tr.Span("shard_extract")
		if !tr.Finished || !ok {
			t.Fatalf("capture trace %s (finished=%v) has no shard_extract span", tr.ID, tr.Finished)
		}
		attrs := map[string]string{}
		for _, kv := range sp.Attrs {
			attrs[kv.Key] = kv.Value
		}
		if s := attrs["shard"]; s != "1" && s != "2" {
			t.Fatalf("trace %s: shard_extract span attrs %v lack the shard", tr.ID, sp.Attrs)
		}
		if ns, err := strconv.ParseInt(attrs["worker_ns"], 10, 64); err != nil || ns <= 0 || ns > sp.DurationNS {
			t.Fatalf("trace %s: worker_ns %q is not a duration inside the %d ns span", tr.ID, attrs["worker_ns"], sp.DurationNS)
		}
	}
	if captures == 0 {
		t.Fatal("no capture traces retained")
	}

	rr := httptest.NewRecorder()
	tracer.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/traces?stage=shard_extract", nil))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "worker_ns") {
		t.Fatalf("/debug/traces does not serve the extract spans: %d\n%s", rr.Code, rr.Body.String())
	}
}

// TestScrapeStallDoesNotBlockRotation: the federated scrape loop, pointed
// at a stalled worker-admin double that never answers /metrics, must not
// stall the run — the proc fanout completes normally while /healthz
// degrades to report the hung worker.
func TestScrapeStallDoesNotBlockRotation(t *testing.T) {
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // a hung worker admin endpoint: never responds
	}))
	defer stalled.Close()

	fed := obs.NewFederator(obs.FederatorConfig{
		Local:    metrics.NewRegistry(),
		Interval: 5 * time.Millisecond,
		Timeout:  30 * time.Millisecond,
		Targets:  func() []obs.Target { return []obs.Target{{Name: "1", URL: stalled.URL}} },
	})
	stop := fed.Start()
	defer stop()

	start := time.Now()
	run := runProcFanout(t, newMemTransport(2), 2, 3, metrics.NewRegistry())
	if len(run.items) == 0 {
		t.Fatal("run captured nothing")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("run blocked by stalled scrape: %v", elapsed)
	}

	// And the hung worker surfaces as degraded health, not silence.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		rr := httptest.NewRecorder()
		fed.HealthHandler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rr.Code == http.StatusServiceUnavailable {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("stalled worker never degraded /healthz")
}
