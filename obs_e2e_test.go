package pseudohoneypot

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/obs"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// counterTotal sums a family's sample values across every sample whose
// labels include all of want.
func counterTotal(fams []metrics.FamilySnapshot, name string, want map[string]string) float64 {
	total := 0.0
	for _, fam := range fams {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Samples {
			have := map[string]string{}
			for _, l := range s.Labels {
				have[l.Name] = l.Value
			}
			match := true
			for k, v := range want {
				if have[k] != v {
					match = false
					break
				}
			}
			if match {
				total += s.Value
			}
		}
	}
	return total
}

// TestProcFederationEndToEnd drives real worker subprocesses and checks
// the whole observability tentpole at once: the coordinator scrapes the
// workers' loopback /metrics, the merged rollup is internally consistent
// across the process boundary (each worker's extracted-capture counter
// equals the coordinator's count of results that worker returned), fleet
// totals equal an unsharded run's, the rollup re-federates to a fixpoint,
// the aggregated health view is green, and /debug/traces holds capture
// traces whose shard_extract span carries the worker's elapsed time.
func TestProcFederationEndToEnd(t *testing.T) {
	const shards, hours = 2, 4

	reg := NewMetricsRegistry()
	tracer := trace.New(trace.Config{Enabled: true, Buffer: 128})
	cfg := shardGoldenConfig(shards, "proc")
	cfg.Metrics = reg
	cfg.Tracer = tracer

	sim := testSimulation(t)
	sniffer, err := NewSniffer(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sniffer.Close()
	if err := sniffer.RunHours(hours); err != nil {
		t.Fatal(err)
	}
	// The last micro-batches may still be in flight; DetectAll drains, so
	// every result a worker produced has been counted on both sides.
	if _, err := sniffer.DetectAll(); err != nil {
		t.Fatal(err)
	}

	urls := sniffer.ShardAdminURLs()
	if len(urls) != shards {
		t.Fatalf("ShardAdminURLs = %v, want %d workers", urls, shards)
	}
	for i, u := range urls {
		if !strings.HasPrefix(u, "http://") {
			t.Fatalf("worker %d admin URL malformed: %q", i+1, u)
		}
	}

	// Workers expose per-process health on the same loopback server that
	// answers extract requests.
	resp, err := http.Get(urls[0] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("worker /healthz status %d", resp.StatusCode)
	}

	fed := obs.NewFederator(obs.FederatorConfig{
		Local: reg,
		Targets: func() []obs.Target {
			ts := make([]obs.Target, 0, shards)
			for i, u := range sniffer.ShardAdminURLs() {
				ts = append(ts, obs.Target{Name: strconv.Itoa(i + 1), URL: u})
			}
			return ts
		},
	})
	if n := fed.ScrapeOnce(context.Background()); n != shards {
		t.Fatalf("scraped %d workers, want %d", n, shards)
	}
	rollup := fed.Rollup()

	// Cross-process consistency: every capture a worker extracted is one
	// result line the coordinator read back (no batch was retried in this
	// run), so the scraped worker-side counter must equal the
	// coordinator-side one, per shard.
	coord := reg.Snapshot()
	for s := 1; s <= shards; s++ {
		shard := map[string]string{"shard": strconv.Itoa(s)}
		shipped := counterTotal(coord, "ph_shard_batch_captures_total", shard)
		extracted := counterTotal(rollup, "ph_shard_worker_extracted_total", shard)
		if shipped == 0 {
			t.Fatalf("shard %d returned no captures", s)
		}
		if extracted != shipped {
			t.Fatalf("shard %d: worker extracted %v captures != coordinator read back %v",
				s, extracted, shipped)
		}
	}

	// Fleet totals equal the unsharded run's: same world, same seed, no
	// sharding, fresh registry.
	reg2 := NewMetricsRegistry()
	cfg2 := shardGoldenConfig(0, "")
	cfg2.Metrics = reg2
	sniffer2, err := NewSniffer(testSimulation(t), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer sniffer2.Close()
	if err := sniffer2.RunHours(hours); err != nil {
		t.Fatal(err)
	}
	procCaptures := counterTotal(rollup, "ph_monitor_tweets_captured_total", nil)
	flatCaptures := counterTotal(reg2.Snapshot(), "ph_monitor_tweets_captured_total", nil)
	if procCaptures == 0 || procCaptures != flatCaptures {
		t.Fatalf("federated capture total %v != unsharded %v", procCaptures, flatCaptures)
	}

	// The workers' runtime telemetry federates per shard.
	var rendered strings.Builder
	if err := metrics.WriteTextSnapshots(&rendered, rollup); err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= shards; s++ {
		want := `ph_runtime_goroutines{shard="` + strconv.Itoa(s) + `"}`
		if !strings.Contains(rendered.String(), want) {
			t.Fatalf("missing %s in federated rollup:\n%s", want, rendered.String())
		}
	}

	// Re-federating the rendered rollup is a fixpoint.
	exp, err := metrics.ParseExposition(strings.NewReader(rendered.String()))
	if err != nil {
		t.Fatalf("rollup does not re-parse: %v", err)
	}
	var again strings.Builder
	if err := metrics.WriteTextSnapshots(&again,
		metrics.MergeInstances([]metrics.Instance{{Name: "coord", Exposition: exp}})); err != nil {
		t.Fatal(err)
	}
	if rendered.String() != again.String() {
		t.Fatal("scrape → merge → re-expose → parse → merge is not a fixpoint")
	}

	// Aggregated health: every worker answered, 200 with per-shard detail.
	rr := httptest.NewRecorder()
	fed.HealthHandler(sniffer.HealthExtra()).ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("aggregated /healthz = %d: %s", rr.Code, rr.Body.String())
	}
	var fleet obs.FleetHealth
	if err := json.Unmarshal(rr.Body.Bytes(), &fleet); err != nil {
		t.Fatal(err)
	}
	if len(fleet.Workers) != shards {
		t.Fatalf("health reports %d workers, want %d", len(fleet.Workers), shards)
	}
	for _, w := range fleet.Workers {
		if w.Status != obs.StatusOK {
			t.Fatalf("worker %s unhealthy: %+v", w.Shard, w)
		}
	}

	// /debug/traces shows each capture's extract step across the process
	// boundary: a shard_extract span tagged with the shard and the worker's
	// own elapsed time.
	remote := 0
	for _, info := range tracer.Recent() {
		sp, ok := info.Span("shard_extract")
		if info.Name != "capture" || !ok {
			continue
		}
		attrs := map[string]string{}
		for _, kv := range sp.Attrs {
			attrs[kv.Key] = kv.Value
		}
		if attrs["shard"] != "" && attrs["worker_ns"] != "" {
			remote++
		}
	}
	if remote == 0 {
		t.Fatal("no capture trace with a worker-timed shard_extract span in /debug/traces")
	}

	// And the HTTP debug view renders them.
	rr = httptest.NewRecorder()
	tracer.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "worker_ns") {
		t.Fatalf("/debug/traces missing worker-timed extract spans: %d\n%s", rr.Code, rr.Body.String())
	}
}
