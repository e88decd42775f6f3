package metrics

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func testRegistry() *Registry {
	r := NewRegistry()
	r.Counter("ph_tweets_total", "Captured tweets.").Add(42)
	r.Gauge("ph_nodes", "Harnessed accounts.").Set(-2.5)
	v := r.CounterVec("ph_group_total", "Per-group captures.", "selector")
	v.With(`followers count=100`).Add(7)
	v.With("weird\"label\\with\nescapes").Inc()
	h := r.Histogram("ph_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(30)
	return r
}

func TestWriteTextFormat(t *testing.T) {
	var b strings.Builder
	if err := testRegistry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP ph_tweets_total Captured tweets.",
		"# TYPE ph_tweets_total counter",
		"ph_tweets_total 42",
		"# TYPE ph_nodes gauge",
		"ph_nodes -2.5",
		`ph_group_total{selector="followers count=100"} 7`,
		`ph_group_total{selector="weird\"label\\with\nescapes"} 1`,
		"# TYPE ph_latency_seconds histogram",
		`ph_latency_seconds_bucket{le="0.1"} 1`,
		`ph_latency_seconds_bucket{le="1"} 2`,
		`ph_latency_seconds_bucket{le="+Inf"} 3`,
		"ph_latency_seconds_sum 30.55",
		"ph_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestExpositionRoundTrips is the format gate: everything WriteText emits
// must parse back as valid Prometheus text with the original values.
func TestExpositionRoundTrips(t *testing.T) {
	r := testRegistry()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("own exposition rejected: %v", err)
	}
	byName := func(name string, labels map[string]string) *ParsedSample {
		for i, s := range samples {
			if s.Name != name {
				continue
			}
			match := true
			for k, v := range labels {
				if s.Labels[k] != v {
					match = false
					break
				}
			}
			if match {
				return &samples[i]
			}
		}
		return nil
	}
	if s := byName("ph_tweets_total", nil); s == nil || s.Value != 42 {
		t.Fatalf("ph_tweets_total round-trip: %+v", s)
	}
	if s := byName("ph_group_total", map[string]string{"selector": "weird\"label\\with\nescapes"}); s == nil || s.Value != 1 {
		t.Fatalf("escaped label did not round-trip: %+v", s)
	}
	if s := byName("ph_latency_seconds_bucket", map[string]string{"le": "+Inf"}); s == nil || s.Value != 3 {
		t.Fatalf("+Inf bucket round-trip: %+v", s)
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"no TYPE", "loose_metric 1\n"},
		{"bad value", "# TYPE m counter\nm notanumber\n"},
		{"bad name", "# TYPE m counter\n9bad 1\n"},
		{"unterminated labels", "# TYPE m counter\nm{a=\"x\" 1\n"},
		{"unquoted label", "# TYPE m counter\nm{a=x} 1\n"},
		{"duplicate sample", "# TYPE m counter\nm 1\nm 2\n"},
		{"duplicate TYPE", "# TYPE m counter\n# TYPE m counter\nm 1\n"},
		{"unknown type", "# TYPE m widget\nm 1\n"},
		{"malformed TYPE", "# TYPE m\nm 1\n"},
		{"bad escape", "# TYPE m counter\nm{a=\"\\q\"} 1\n"},
		{"bucket missing le", "# TYPE m histogram\nm_bucket 1\n"},
		{"bad timestamp", "# TYPE m counter\nm 1 nope\n"},
		{"duplicate label", "# TYPE m counter\nm{a=\"1\",a=\"2\"} 1\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseText(strings.NewReader(tt.in)); err == nil {
				t.Fatalf("accepted %q", tt.in)
			}
		})
	}
}

func TestParseRejectsDuplicateSeries(t *testing.T) {
	payload := "# TYPE a counter\na{x=\"1\"} 1\na{x=\"1\"} 2\n"
	if _, err := ParseText(strings.NewReader(payload)); err == nil {
		t.Fatal("duplicate series accepted")
	}
	// Same name with distinct labels is fine.
	ok := "# TYPE a counter\na{x=\"1\"} 1\na{x=\"2\"} 2\n"
	if _, err := ParseText(strings.NewReader(ok)); err != nil {
		t.Fatalf("distinct-label series rejected: %v", err)
	}
}

func TestParseTextAcceptsForeignPayload(t *testing.T) {
	// A hand-written payload with comments, timestamps, and Inf values.
	in := strings.Join([]string{
		"# just a comment",
		"# HELP up Scrape health.",
		"# TYPE up gauge",
		"up 1 1700000000000",
		"# TYPE temp gauge",
		`temp{site="x"} -Inf`,
		`temp{site="y"} +Inf`,
		"",
	}, "\n")
	samples, err := ParseText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("parsed %d samples, want 3", len(samples))
	}
	if !math.IsInf(samples[2].Value, 1) {
		t.Fatalf("+Inf value parsed as %v", samples[2].Value)
	}
}

func TestMetricsHandler(t *testing.T) {
	srv := httptest.NewServer(testRegistry().Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != TextContentType {
		t.Fatalf("Content-Type = %q", got)
	}
	if _, err := ParseText(resp.Body); err != nil {
		t.Fatalf("handler output invalid: %v", err)
	}
}

func TestHealthHandler(t *testing.T) {
	srv := httptest.NewServer(HealthHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.UptimeSeconds < 0 {
		t.Fatalf("health = %+v", h)
	}
	if h.GoVersion == "" {
		t.Fatal("health missing go_version")
	}
}

// TestHealthExtrasDegrade pins the two downgrades HealthHandlerFunc
// applies after its extras: a WAL sync error marks the body degraded and
// keeps 200 (alive, serving), a shard worker that is not ok marks it
// degraded and answers 503; nil extras are skipped.
func TestHealthExtrasDegrade(t *testing.T) {
	for _, tt := range []struct {
		name   string
		extra  func(*Health)
		code   int
		status string
	}{
		{"nil extra", nil, 200, "ok"},
		{"healthy shards", func(h *Health) {
			h.Shards = []ShardHealth{{Shard: "1", Status: "ok"}, {Shard: "2", Status: "ok", Restarts: 1}}
		}, 200, "ok"},
		{"wal sync error", func(h *Health) { h.WAL = &WALHealth{LastSyncError: "EIO"} }, 200, "degraded"},
		{"restarting shard", func(h *Health) {
			h.Shards = []ShardHealth{{Shard: "1", Status: "ok"}, {Shard: "2", Status: "restarting", LastError: "deadline"}}
		}, 503, "degraded"},
		{"failed shard", func(h *Health) {
			h.Shards = []ShardHealth{{Shard: "1", Status: "failed", LastError: "no route to host"}}
		}, 503, "degraded"},
	} {
		rr := httptest.NewRecorder()
		HealthHandlerFunc(tt.extra).ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
		var h Health
		if err := json.Unmarshal(rr.Body.Bytes(), &h); err != nil {
			t.Fatal(err)
		}
		if rr.Code != tt.code || h.Status != tt.status {
			t.Fatalf("%s: %d %q, want %d %q", tt.name, rr.Code, h.Status, tt.code, tt.status)
		}
	}
}

func TestHealthStreamReadAge(t *testing.T) {
	// Before any stream read the field is absent; after MarkStreamRead it
	// reports a small age. lastStreamRead is process state, so reset it.
	lastStreamRead.Store(0)
	defer lastStreamRead.Store(0)

	get := func() Health {
		srv := httptest.NewServer(HealthHandler())
		defer srv.Close()
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	if h := get(); h.LastStreamReadAgeSeconds != nil {
		t.Fatalf("stream age present before any read: %+v", h)
	}
	MarkStreamRead(time.Now())
	h := get()
	if h.LastStreamReadAgeSeconds == nil {
		t.Fatal("stream age missing after MarkStreamRead")
	}
	if age := *h.LastStreamReadAgeSeconds; age < 0 || age > 60 {
		t.Fatalf("implausible stream read age %v", age)
	}
}

func TestSpanObserver(t *testing.T) {
	reg := NewRegistry()
	obs := reg.SpanObserver()
	obs("classify", 0.25)
	obs("classify", 0.75)
	obs("capture", 0.001)
	var fam *FamilySnapshot
	for _, f := range reg.Snapshot() {
		if f.Name == "ph_trace_span_seconds" {
			fam = &f
			break
		}
	}
	if fam == nil {
		t.Fatal("ph_trace_span_seconds not registered")
	}
	byStage := make(map[string]Sample)
	for _, s := range fam.Samples {
		if len(s.Labels) == 1 && s.Labels[0].Name == "stage" {
			byStage[s.Labels[0].Value] = s
		}
	}
	if s := byStage["classify"]; s.Count != 2 || s.Sum != 1.0 {
		t.Fatalf("classify histogram = count %d sum %v", s.Count, s.Sum)
	}
	if s := byStage["capture"]; s.Count != 1 || s.Sum != 0.001 {
		t.Fatalf("capture histogram = count %d sum %v", s.Count, s.Sum)
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	b, err := json.Marshal(testRegistry().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	out := string(b)
	for _, want := range []string{`"type":"counter"`, `"type":"histogram"`, `"name":"ph_nodes"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot JSON missing %s: %s", want, out)
		}
	}
}
