package twitterapi

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics/metricstest"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// TestClientRateLimitMetrics covers the 429-then-retry path: the rate-limit
// counter ticks and the request latency histogram records the call.
func TestClientRateLimitMetrics(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits == 1 {
			w.Header().Set("Retry-After", "0")
			writeErr(w, http.StatusTooManyRequests, "slow down")
			return
		}
		writeJSON(w, SimStats{Hours: 3})
	}))
	defer srv.Close()

	reg := metrics.NewRegistry()
	client := NewClient(srv.URL, srv.Client())
	client.SetMetrics(reg)
	client.MaxBackoff = 20 * time.Millisecond
	if _, err := client.Stats(context.Background()); err != nil {
		t.Fatalf("Stats after 429: %v", err)
	}
	if got := reg.Counter("ph_client_rate_limited_total", "").Value(); got != 1 {
		t.Fatalf("rate-limited counter = %v, want 1", got)
	}
	reqSecs := reg.HistogramVec("ph_client_request_seconds", "", nil, "path")
	if got := reqSecs.With("/sim/stats.json").Count(); got != 1 {
		t.Fatalf("request latency count = %d, want 1", got)
	}
}

// TestServerMetricsEndpoints exercises the server-side observability stack
// end to end: REST traffic shows up in the registry, /metrics
// serves valid Prometheus text containing them, and /healthz answers.
func TestServerMetricsEndpoints(t *testing.T) {
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 300
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv := NewServer(socialnet.NewEngine(w), WithMetrics(reg))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/1.1/trends.json")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
	requests := reg.CounterVec("ph_api_requests_total", "", "endpoint")
	if got := requests.With("trends").Value(); got != 3 {
		t.Fatalf("trends request counter = %v, want 3", got)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.TextContentType {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := metricstest.ParseText(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("/metrics not valid exposition text: %v", err)
	}
	found := false
	for _, s := range samples {
		if s.Name == "ph_api_requests_total" && s.Labels["endpoint"] == "trends" {
			found = true
			if s.Value != 3 {
				t.Fatalf("exposed trends counter = %v, want 3", s.Value)
			}
		}
	}
	if !found {
		t.Fatal("ph_api_requests_total{endpoint=\"trends\"} absent from /metrics")
	}

	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = health.Body.Close() }()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", health.StatusCode)
	}
	var hb struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(health.Body).Decode(&hb); err != nil || hb.Status != "ok" {
		t.Fatalf("/healthz body: %+v err=%v", hb, err)
	}
}
