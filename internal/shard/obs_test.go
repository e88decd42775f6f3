package shard

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/obs"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/pipeline"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// fixedClock pins every span timestamp, standing in for the simclock: two
// replayed runs must snapshot byte-identical traces.
func fixedClock() time.Time { return time.Unix(1_700_000_000, 0).UTC() }

// runStitchedEpochs drives a traced proc run on an in-memory transport
// whose worker cores also trace (as real workers do), and returns the
// coordinator tracer's retained snapshots.
func runStitchedEpochs(t *testing.T, shards, hours int) []trace.TraceInfo {
	t.Helper()
	workerTracer := trace.New(trace.Config{Enabled: true, Clock: fixedClock})
	mt := newMemTransport(shards)
	for s := range mt.cores {
		mt.cores[s] = NewWorkerCore(s, label.DefaultConfig(), pipeline.Config{Tracer: workerTracer})
	}
	coordTracer := trace.New(trace.Config{Enabled: true, Buffer: 64, Clock: fixedClock})

	w, e, m := testWorld(t)
	pc, err := NewProcCoordinator(ProcConfig{
		Shards:    shards,
		Lookup:    w.Account,
		Transport: mt,
		Metrics:   metrics.NewRegistry(),
		Tracer:    coordTracer,
		Apply:     func([]Merged) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	e.OnHourStart(func(_ int, now time.Time) {
		m.Rotate(now, time.Hour)
		pc.BeginEpoch(m.CurrentNodes())
	})
	cancel := e.Subscribe(pc.OnTweet)
	defer cancel()
	for h := 0; h < hours; h++ {
		e.RunHours(1)
		if err := pc.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	return coordTracer.Recent()
}

// TestStitchedEpochTrace checks pillar (b) end to end on the in-memory
// wire: each epoch yields one coordinator trace whose tree contains the
// per-shard extract spans AND the worker-side spans re-ingested across the
// (simulated) process boundary, parented under shard_extract.
func TestStitchedEpochTrace(t *testing.T) {
	traces := runStitchedEpochs(t, 2, 3)
	if len(traces) == 0 {
		t.Fatal("no epoch traces retained")
	}
	stitched := 0
	for _, tr := range traces {
		if tr.Name != "shard_epoch" || !tr.Finished {
			t.Fatalf("unexpected trace %q finished=%v", tr.Name, tr.Finished)
		}
		if _, ok := tr.Span("shard_extract"); !ok {
			t.Fatalf("trace %s missing shard_extract span", tr.ID)
		}
		for _, sp := range tr.Spans {
			if sp.Stage != "worker_match" {
				continue
			}
			attrs := map[string]string{}
			for _, kv := range sp.Attrs {
				attrs[kv.Key] = kv.Value
			}
			if attrs["parent"] != "shard_extract" {
				t.Fatalf("worker span not parented: %+v", sp.Attrs)
			}
			if attrs["shard"] == "" {
				t.Fatalf("worker span missing shard attr: %+v", sp.Attrs)
			}
			stitched++
		}
	}
	// Every epoch re-ingests one worker_match span per shard.
	if want := 3 * 2; stitched != want {
		t.Fatalf("stitched %d worker spans, want %d", stitched, want)
	}
}

// TestStitchedTraceDeterministic replays the traced run and requires the
// full trace snapshots — ids, names, spans, attributes, timestamps — to be
// bit-identical under the fixed clock, the property the acceptance
// criterion "deterministic under simclock" pins.
func TestStitchedTraceDeterministic(t *testing.T) {
	a, err := json.Marshal(runStitchedEpochs(t, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(runStitchedEpochs(t, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("trace snapshots differ across identical runs:\n--- a\n%s\n--- b\n%s", a, b)
	}
}

// TestScrapeStallDoesNotBlockRotation is the satellite-6 regression: the
// federated scrape loop, pointed at a stalled worker-admin double that
// never answers /metrics, must not stall the epoch rotation — the proc run
// completes normally while /healthz degrades to report the hung worker.
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

	// The rotation barrier runs to completion while scrapes stall.
	start := time.Now()
	applied := runProcEpochs(t, newMemTransport(2), 2, 3)
	if len(applied) == 0 {
		t.Fatal("run captured nothing")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("rotation blocked by stalled scrape: %v", elapsed)
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
