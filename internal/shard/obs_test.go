package shard

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
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

// healthProbe records shard probe's health row as each of its extract
// attempts goes out — what /healthz would have said with that attempt in
// flight — and fails the shard's first fail attempts outright.
type healthProbe struct {
	*memTransport
	fanout *Fanout
	probe  int
	fail   int
	seen   []metrics.ShardHealth // touched only by the probed shard's goroutine
}

func (p *healthProbe) Extract(ctx context.Context, s int, body []byte) ([]byte, error) {
	if s != p.probe {
		return p.memTransport.Extract(ctx, s, body)
	}
	p.seen = append(p.seen, p.fanout.ShardHealth()[s])
	if len(p.seen) <= p.fail {
		return nil, errors.New("no route to host")
	}
	return p.memTransport.Extract(ctx, s, body)
}

// TestWorkerHealthFromTransport: the /healthz shard rows come first-hand
// from the fanout's retry loop, with no worker endpoint to scrape. A hung
// worker reads "restarting" while the retry is in flight and "ok" with one
// restart once it succeeds, inside one batch deadline; a worker whose
// retries run out reads "failed" for the rest of the run, even after its
// replacement answers, and turns /healthz into a 503 naming the error.
func TestWorkerHealthFromTransport(t *testing.T) {
	clean := runProcFanout(t, newMemTransport(2), 2, 2, metrics.NewRegistry(), nil)

	hung := &healthProbe{memTransport: newMemTransport(2), probe: 1}
	hung.faults[1] = faultHang
	start := time.Now()
	run := runProcFanout(t, hung, 2, 2, metrics.NewRegistry(), func(f *Fanout) { hung.fanout = f })
	if elapsed, bound := time.Since(start), batchDeadline+20*time.Second; elapsed > bound {
		t.Fatalf("hung worker held the run for %v (bound %v)", elapsed, bound)
	}
	assertSameCaptures(t, clean, run)
	if len(hung.seen) < 3 {
		t.Fatalf("probed shard made %d extract attempts, want the hang, its retry and more", len(hung.seen))
	}
	first, retry, next := hung.seen[0], hung.seen[1], hung.seen[2]
	if first.Status != statusOK || first.Restarts != 0 {
		t.Fatalf("before the hang: %+v", first)
	}
	if retry.Status != statusRestarting || retry.Restarts != 1 || !strings.Contains(retry.LastError, "deadline") {
		t.Fatalf("retry in flight: %+v", retry)
	}
	if next.Status != statusOK || next.Restarts != 1 {
		t.Fatalf("after the retry answered: %+v", next)
	}
	if h := run.health; h[1] != next || h[0].Status != statusOK || h[0].Restarts != 0 {
		t.Fatalf("final health %+v", h)
	}

	dead := &healthProbe{memTransport: newMemTransport(2), probe: 0, fail: maxRetries + 1}
	run = runProcFanout(t, dead, 2, 2, metrics.NewRegistry(), func(f *Fanout) { dead.fanout = f })
	if run.drainErr == nil || len(run.items) != run.ingested {
		t.Fatalf("exhausted retries: drain error %v, %d of %d captures", run.drainErr, len(run.items), run.ingested)
	}
	if len(dead.seen) <= maxRetries+2 {
		t.Fatalf("probed shard made %d extract attempts, want batches after the failed one", len(dead.seen))
	}
	for i, h := range dead.seen[maxRetries+1:] {
		if h.Status != statusFailed {
			t.Fatalf("attempt %d after the failed batch: %+v, want sticky %q", maxRetries+1+i, h, statusFailed)
		}
	}
	failed := run.health[0]
	if failed.Status != statusFailed || failed.Restarts != maxRetries || !strings.Contains(failed.LastError, "no route to host") {
		t.Fatalf("final health of the dead shard: %+v", failed)
	}

	rr := httptest.NewRecorder()
	metrics.HealthHandlerFunc(func(h *metrics.Health) { h.Shards = run.health }).
		ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var body metrics.Health
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if rr.Code != http.StatusServiceUnavailable || body.Status != "degraded" || len(body.Shards) != 2 ||
		body.Shards[0].LastError != failed.LastError {
		t.Fatalf("/healthz with a failed shard = %d: %s", rr.Code, rr.Body.String())
	}
}
