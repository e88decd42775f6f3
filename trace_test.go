package pseudohoneypot

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/simclock"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// tracedRun executes the full pipeline — monitor, label, train, classify,
// attribute — with the given tracer wired through every stage.
func tracedRun(t *testing.T, tracer *Tracer) (*Sniffer, *DetectionResult) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumAccounts = 2000
	cfg.OrganicTweetsPerHour = 400
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sniffer, err := NewSniffer(sim, SnifferConfig{
		Specs:      StandardSpecs(1),
		Classifier: ClassifierDT, // cheapest family; tracing is the subject
		Seed:       7,
		Tracer:     tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sniffer.Close)
	sim.RunHours(6)
	res, err := sniffer.DetectAll()
	if err != nil {
		t.Fatal(err)
	}
	return sniffer, res
}

// TestTracedRunDeterministic replays the same simulated run twice with
// simclock-driven tracers and compares their /debug/traces payloads. Every
// trace but the stage graph's per-flush ones starts on the delivery or the
// caller goroutine, so those traces — spans, attrs and JSON — must be
// byte-identical once each trace id is replaced by its rank by id among
// them. The flush traces start on the stage goroutines: how many there are
// follows scheduling, and they shift the shared id counter, which is why
// ids are ranked. What they must agree on is what each stage flushed in
// total: every capture, once.
func TestTracedRunDeterministic(t *testing.T) {
	const buffer = 1 << 14
	serve := func() (string, map[string]int, *DetectionResult) {
		clk := simclock.NewSimulated(time.Unix(0, 0).UTC())
		tracer := trace.New(trace.Config{Enabled: true, Buffer: buffer, Clock: clk.Now})
		_, res := tracedRun(t, tracer)
		rec := httptest.NewRecorder()
		tracer.Handler().ServeHTTP(rec,
			httptest.NewRequest(http.MethodGet, "/debug/traces?limit=0", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/debug/traces status %d", rec.Code)
		}
		var list trace.TraceList
		if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Traces) >= buffer {
			t.Fatalf("%d traces fill the ring; eviction would drop a scheduling-dependent set", len(list.Traces))
		}
		var kept []trace.TraceInfo
		flushed := make(map[string]int)
		for _, info := range list.Traces {
			if !strings.HasPrefix(info.Name, "pipeline_") {
				kept = append(kept, info)
				continue
			}
			for _, kv := range info.Attrs {
				if kv.Key == "batch" {
					n, err := strconv.Atoi(kv.Value)
					if err != nil {
						t.Fatalf("flush trace %s: batch attr %q", info.ID, kv.Value)
					}
					flushed[info.Name] += n
				}
			}
		}
		// Ids are zero-padded, so string order is numeric order.
		sort.Slice(kept, func(i, j int) bool { return kept[i].ID < kept[j].ID })
		rank := make(map[string]string, len(kept))
		for i, info := range kept {
			rank[info.ID] = fmt.Sprintf("r-%06d", i)
		}
		body, err := json.Marshal(kept)
		if err != nil {
			t.Fatal(err)
		}
		// Adopted label spans name their label trace in a batch attr, so
		// ids are ranked wherever they appear.
		ranked := traceIDPattern.ReplaceAllStringFunc(string(body), func(id string) string {
			if r, ok := rank[id]; ok {
				return r
			}
			return id
		})
		return ranked, flushed, res
	}
	first, flushed1, res1 := serve()
	second, flushed2, res2 := serve()
	if first != second {
		t.Fatalf("non-flush trace payloads differ between identical runs (len %d vs %d)",
			len(first), len(second))
	}
	for _, stage := range []string{"pipeline_extract", "pipeline_merge", "pipeline_label", "pipeline_detect"} {
		if flushed1[stage] != res1.Captures || flushed2[stage] != res2.Captures {
			t.Fatalf("%s flushed %d and %d captures in the two runs, want every capture (%d) once",
				stage, flushed1[stage], flushed2[stage], res1.Captures)
		}
	}
	if len(flushed1) != 4 || len(flushed2) != 4 {
		t.Fatalf("flush traces of stages %v and %v, want the four stages", flushed1, flushed2)
	}
	if res1.Spams != res2.Spams || res1.Spammers != res2.Spammers {
		t.Fatalf("detection results differ: %+v vs %+v", res1, res2)
	}
}

// traceIDPattern matches a trace id as the tracer formats it.
var traceIDPattern = regexp.MustCompile(`t-[0-9]{6,}`)

// TestTracingDoesNotPerturbResults runs the identical simulation with
// tracing off and fully on; verdict counts, labels, and the PGE ranking
// must match exactly — tracing observes the pipeline, never steers it.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	off := trace.New(trace.Config{Enabled: false})
	on := trace.New(trace.Config{Enabled: true, Buffer: 1 << 14})
	_, resOff := tracedRun(t, off)
	_, resOn := tracedRun(t, on)

	if resOff.Captures != resOn.Captures ||
		resOff.Spams != resOn.Spams ||
		resOff.Spammers != resOn.Spammers {
		t.Fatalf("tracing changed detection: off %+v on %+v", resOff, resOn)
	}
	if resOff.Labels.TotalSpams() != resOn.Labels.TotalSpams() ||
		resOff.Labels.TotalSpammers() != resOn.Labels.TotalSpammers() {
		t.Fatal("tracing changed labeling")
	}
	if len(resOff.PGE) != len(resOn.PGE) {
		t.Fatal("tracing changed PGE length")
	}
	for i := range resOff.PGE {
		if resOff.PGE[i] != resOn.PGE[i] {
			t.Fatalf("tracing changed PGE row %d: %+v vs %+v",
				i, resOff.PGE[i], resOn.PGE[i])
		}
	}
}

// TestCaptureTraceSpanCoverage checks the acceptance contract: every
// capture's trace records its full journey — capture, feature extraction
// (its stateless part on the shard, shard_extract, and its stateful part in
// stream order, feature_complete), every labeling pass, and
// classification.
func TestCaptureTraceSpanCoverage(t *testing.T) {
	tracer := trace.New(trace.Config{Enabled: true, Buffer: 1 << 14})
	sniffer, res := tracedRun(t, tracer)
	if res.Captures == 0 {
		t.Fatal("no captures")
	}
	wantStages := []string{
		"capture", "shard_extract", "feature_complete",
		"label_suspended", "label_cluster_image", "label_cluster_name",
		"label_cluster_description", "label_cluster_tweets",
		"label_rules", "label_manual",
		"classify",
	}
	for _, c := range sniffer.Monitor().Captures() {
		if c.Trace == nil {
			t.Fatal("capture without trace")
		}
		info := c.Trace.Snapshot()
		for _, stage := range wantStages {
			if _, ok := info.Span(stage); !ok {
				t.Fatalf("capture trace %s missing %q span (has %d spans)",
					info.ID, stage, len(info.Spans))
			}
		}
	}
	// The batch traces are retained alongside the capture traces.
	for _, name := range []string{"label", "detector_train", "detector_classify", "pge_attribute", "rotate"} {
		found := false
		for _, info := range tracer.Recent() {
			if info.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no %q trace retained", name)
		}
	}
}

// TestSpanHistogramConsistency wires the tracer's observer to a private
// metrics registry and checks the cross-layer invariant: for every stage,
// the ph_trace_span_seconds histogram's sum and count match the summed
// span durations in the trace ring buffer.
func TestSpanHistogramConsistency(t *testing.T) {
	reg := metrics.NewRegistry()
	tracer := trace.New(trace.Config{
		Enabled:  true,
		Buffer:   1 << 14, // retain everything: eviction would drop ring spans but not histogram samples
		Observer: reg.SpanObserver(),
	})
	tracedRun(t, tracer)

	sum := tracer.Summary(0)
	if sum.Spans == 0 {
		t.Fatal("no spans retained")
	}
	type hist struct {
		count uint64
		sum   float64
	}
	byStage := make(map[string]hist)
	for _, fam := range reg.Snapshot() {
		if fam.Name != "ph_trace_span_seconds" {
			continue
		}
		for _, s := range fam.Samples {
			for _, l := range s.Labels {
				if l.Name == "stage" {
					byStage[l.Value] = hist{count: s.Count, sum: s.Sum}
				}
			}
		}
	}
	if len(byStage) == 0 {
		t.Fatal("observer recorded nothing")
	}
	for _, st := range sum.Stages {
		h, ok := byStage[st.Stage]
		if !ok {
			t.Fatalf("stage %q in traces but not in histograms", st.Stage)
		}
		if h.count != uint64(st.Count) {
			t.Fatalf("stage %q: %d spans vs %d histogram observations",
				st.Stage, st.Count, h.count)
		}
		diff := h.sum - st.SumSeconds
		if diff < 0 {
			diff = -diff
		}
		tol := 1e-9 * float64(st.Count+1)
		if diff > tol {
			t.Fatalf("stage %q: span sum %v vs histogram sum %v (diff %v)",
				st.Stage, st.SumSeconds, h.sum, diff)
		}
	}
	if len(byStage) != len(sum.Stages) {
		t.Fatalf("histogram has %d stages, traces have %d",
			len(byStage), len(sum.Stages))
	}
}
