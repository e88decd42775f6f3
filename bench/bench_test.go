package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// tinyOptions shrinks world, plans and run length together so that every
// workload in both modes takes a few seconds in one process.
func tinyOptions(t *testing.T) options {
	return options{
		Seed:    3,
		Hours:   4,
		Scale:   scale{Accounts: 2000, Organic: 400, NodesPerValue: 1, RandomNodes: 200},
		Repeats: minRepeats,
		Out:     t.TempDir(),
		Scratch: t.TempDir(),
	}
}

// TestSmoke runs all four workloads untraced and traced and checks what the
// benchmark promises about its own output: the declared metrics and no
// others, well-formed spans that add up to the wall clock, equal
// fingerprints, and no failed operation.
func TestSmoke(t *testing.T) {
	s := newSession(tinyOptions(t), io.Discard)
	s.start = func(_ context.Context, spec runSpec) (*runResult, error) { return runOne(spec) }
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

	fingerprints := make(map[string]string)
	for _, w := range workloads {
		rep := newWorkloadReport(w)
		if err := s.measureEndToEnd(context.Background(), w, rep); err != nil {
			t.Fatalf("%s untraced: %v", w.Name, err)
		}
		if err := s.measureLayers(context.Background(), w, rep); err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if !rep.Correct || rep.Failed != 0 || len(rep.KnownFailures) != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d problems=%q failures=%q",
				w.Name, rep.Correct, rep.Attempted, rep.Failed, rep.Problems, rep.KnownFailures)
		}
		fingerprints[w.Name] = rep.Runs[0].Fingerprint

		for _, group := range []struct {
			defs []metricDef
			got  map[string]metricValue
		}{{endToEnd, rep.EndToEnd}, {perLayer, rep.PerLayer}} {
			if len(group.got) != len(group.defs) {
				t.Errorf("%s: %d metrics emitted, %d declared", w.Name, len(group.got), len(group.defs))
			}
			for _, d := range group.defs {
				mv, ok := group.got[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: declared metric %s not emitted", w.Name, d.Name)
				case mv.Unit != d.Unit || mv.Unit == "" || mv.Samples < 1:
					t.Errorf("%s: %s = %+v, want unit %q and samples", w.Name, d.Name, mv, d.Unit)
				case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
					t.Errorf("%s: %s is %v", w.Name, d.Name, mv.Value)
				case !name.MatchString(d.Name):
					t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", d.Name)
				}
			}
		}
		for _, d := range endToEnd {
			if rep.EndToEnd[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, rep.EndToEnd[d.Name].Value)
			}
		}
		// A layer on the workload's path did measurable work; one off it
		// reports 0.
		for metric, onPath := range map[string]bool{
			"features.extract_calls":   true,
			"label.add_batch_s":        true,
			"ml.train_s":               true,
			"pipeline.flushes":         w.Stream,
			"store.wal_appends":        w.WAL,
			"store.checkpoint_write_s": w.WAL,
			"store.recover_s":          w.WAL,
			"shard.collect_ratio":      w.Shards > 1,
			"label.detect_residual_s":  !w.Stream,
		} {
			if got := rep.PerLayer[metric].Value; (got != 0) != onPath {
				t.Errorf("%s: %s = %v, on the workload's path: %t", w.Name, metric, got, onPath)
			}
		}

		line, err := rep.driverLine()
		if err != nil {
			t.Fatal(err)
		}
		var parsed struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &parsed); err != nil {
			t.Fatalf("%s: driver line: %v", w.Name, err)
		}
		if len(parsed.Metrics) != len(endToEnd)+len(perLayer) || !parsed.Correct || parsed.Attempted != rep.Attempted {
			t.Errorf("%s: driver line carries %d metrics, correct=%t attempted=%d", w.Name, len(parsed.Metrics), parsed.Correct, parsed.Attempted)
		}

		checkTraceFile(t, filepath.Join(s.opt.Out, w.Name+".trace.json"), rep)
	}
	for _, w := range workloads {
		if want := fingerprints[referenceFor(w)]; fingerprints[w.Name] != want {
			t.Errorf("%s: fingerprint %s, %s has %s", w.Name, fingerprints[w.Name], referenceFor(w), want)
		}
	}
	if fingerprints["paper-batch"] == fingerprints["dense-stream"] {
		t.Error("paper-batch and dense-stream produced the same result: the plans do not differ")
	}
}

// checkTraceFile re-reads the spans a traced run wrote and checks them.
func checkTraceFile(t *testing.T, path string, rep *workloadReport) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Env   envStamp
		Spec  runSpec
		Spans []span
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if file.Env.GoVersion == "" || file.Env.NProc == 0 || file.Spec.Hours == 0 {
		t.Errorf("%s: no environment stamp: %+v %+v", path, file.Env, file.Spec)
	}
	sum, err := summarize(file.Spans)
	if err != nil {
		t.Fatalf("%s: malformed spans: %v", path, err)
	}
	for _, sp := range file.Spans {
		if sp.Run != file.Spans[0].Run || sp.Run == "" {
			t.Fatalf("%s: span %d has run id %q, span 0 %q", path, sp.ID, sp.Run, file.Spans[0].Run)
		}
	}
	if got := sum.MainLayerS + sum.UnattributedS; math.Abs(got-sum.WallS) > 1e-6 {
		t.Errorf("%s: layer self times %.6f + unattributed %.6f = %.6f, wall %.6f", path, sum.MainLayerS, sum.UnattributedS, got, sum.WallS)
	}
	if sum.UnattributedS > 0.10*sum.WallS {
		t.Errorf("%s: %.3fs of %.3fs unattributed", path, sum.UnattributedS, sum.WallS)
	}
	if got := rep.PerLayer["trace.spans"].Value; got != float64(len(file.Spans)) {
		t.Errorf("%s: %d spans in the file, trace.spans = %v", path, len(file.Spans), got)
	}
}

// TestSummarizeRejectsMalformed feeds the recorder's checker the ways a
// recording can be wrong.
func TestSummarizeRejectsMalformed(t *testing.T) {
	good := []span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "core.match", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "core.match", Start: 40, End: 70},
		{ID: 3, Parent: -1, Name: "pipeline.feature", Start: 20, End: 90},
	}
	sum, err := summarize(good)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.ByName["core.match"]; got.Calls != 2 || math.Abs(got.SelfS-60e-9) > 1e-15 {
		t.Errorf("core.match = %+v", got)
	}
	if math.Abs(sum.MainLayerS-60e-9) > 1e-15 || math.Abs(sum.UnattributedS-40e-9) > 1e-15 {
		t.Errorf("main tree: layers %v unattributed %v, want 60ns and 40ns", sum.MainLayerS, sum.UnattributedS)
	}
	for name, mutate := range map[string]func([]span){
		"never ended":      func(s []span) { s[1].End = -1 },
		"outside parent":   func(s []span) { s[2].End = 120 },
		"overlapping":      func(s []span) { s[2].Start = 30 },
		"parent after kid": func(s []span) { s[1].Parent = 2 },
	} {
		bad := append([]span(nil), good...)
		mutate(bad)
		if _, err := summarize(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDeclarationsMatchBenchmarkJSON keeps BENCHMARK.json, which the driver
// reads, in step with the tables the program reports from.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var file struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []decl
		EndToEnd   []decl `json:"end_to_end"`
		PerLayer   []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200 allowed", w.Name, len(w.Why))
		}
	}
	for _, group := range []struct {
		kind  string
		got   []decl
		want  []metricDef
		bound bool
	}{{"end_to_end", file.EndToEnd, endToEnd, true}, {"per_layer", file.PerLayer, perLayer, false}} {
		if len(group.got) != len(group.want) {
			t.Fatalf("%s: %d declared, %d in the program", group.kind, len(group.got), len(group.want))
		}
		for i, d := range group.want {
			got := group.got[i]
			if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", group.kind, i, got, d)
			}
			if group.bound != (got.Bound != nil) || (group.bound && *got.Bound != d.Bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match %v", group.kind, d.Name, d.Bound)
			}
		}
	}
}
