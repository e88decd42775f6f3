package pseudohoneypot

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/shard"
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

// trailerCounter wraps the real worker fleet and sums, per shard, the
// result count every response opens with: the workers' own tally of what
// they extracted, read off the wire rather than from any worker endpoint.
type trailerCounter struct {
	shard.Transport
	mu   sync.Mutex
	done map[int]int
}

func (tc *trailerCounter) Extract(ctx context.Context, s int, body []byte) ([]byte, error) {
	resp, err := tc.Transport.Extract(ctx, s, body)
	if err != nil {
		return resp, err
	}
	if n, size := binary.Uvarint(resp); size > 0 {
		tc.mu.Lock()
		tc.done[s] += int(n)
		tc.mu.Unlock()
	}
	return resp, nil
}

// TestProcTelemetryEndToEnd drives real worker subprocesses and checks
// that the coordinator's one registry is the whole fleet's view: each
// shard's ph_shard_batch_captures_total equals the result counts its
// worker's responses reported, the capture total equals an unsharded run's,
// the telemetry-fed heap and GC gauges carry every worker, /healthz lists
// two healthy shards from the fanout's own state, and /debug/traces holds
// capture traces whose shard_extract span carries the worker's elapsed
// time.
func TestProcTelemetryEndToEnd(t *testing.T) {
	const shards, hours = 2, 4

	// The workers inherit the environment; a tight GC target makes every
	// one of them finish GC cycles in a run this short, so the gc gauge
	// has something to carry.
	t.Setenv("GOGC", "1")
	counter := &trailerCounter{done: map[int]int{}}
	t.Cleanup(func() { spawnWorkers = shard.SpawnWorkers })
	spawnWorkers = func(n int) (shard.Transport, error) {
		tr, err := shard.SpawnWorkers(n)
		counter.Transport = tr
		return counter, err
	}

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

	// Cross-process consistency: every capture a worker extracted is one
	// result the coordinator read back (no batch was retried in this
	// run), so the responses' result counts must equal the coordinator-side
	// counter, per shard. Both worker gauges hold a sample per shard.
	coord := reg.Snapshot()
	counter.mu.Lock()
	defer counter.mu.Unlock()
	for s := 1; s <= shards; s++ {
		shard := map[string]string{"shard": strconv.Itoa(s)}
		shipped := counterTotal(coord, "ph_shard_batch_captures_total", shard)
		if shipped == 0 {
			t.Fatalf("shard %d returned no captures", s)
		}
		if extracted := float64(counter.done[s-1]); extracted != shipped {
			t.Fatalf("shard %d: worker responses report %v captures != coordinator read back %v",
				s, extracted, shipped)
		}
		for _, gauge := range []string{"ph_shard_worker_heap_bytes", "ph_shard_worker_gc_cycles"} {
			if v := counterTotal(coord, gauge, shard); v <= 0 {
				t.Fatalf("%s{shard=%d} = %v, want a worker sample", gauge, s, v)
			}
		}
	}

	// The capture total equals the unsharded run's: same world, same seed,
	// no sharding, fresh registry.
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
	procCaptures := counterTotal(coord, "ph_monitor_tweets_captured_total", nil)
	flatCaptures := counterTotal(reg2.Snapshot(), "ph_monitor_tweets_captured_total", nil)
	if procCaptures == 0 || procCaptures != flatCaptures {
		t.Fatalf("proc capture total %v != unsharded %v", procCaptures, flatCaptures)
	}

	// Health: every worker answered its last batch, 200 with a row per shard.
	rr := httptest.NewRecorder()
	metrics.HealthHandlerFunc(sniffer.HealthExtra()).ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/healthz = %d: %s", rr.Code, rr.Body.String())
	}
	var health metrics.Health
	if err := json.Unmarshal(rr.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if len(health.Shards) != shards {
		t.Fatalf("health reports %d shards, want %d: %s", len(health.Shards), shards, rr.Body.String())
	}
	for _, sh := range health.Shards {
		if sh.Status != "ok" {
			t.Fatalf("shard %s unhealthy: %+v", sh.Shard, sh)
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
