package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// metricValue is one reported number. Samples says how many runs (or pooled
// per-hour timings) it is the median or percentile of.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// workloadReport is everything measured and checked for one workload.
type workloadReport struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	// Correct is false when an answer was wrong: fingerprints disagree,
	// detection quality fell under the floor, tweets went uncounted.
	Correct  bool     `json:"correct"`
	Problems []string `json:"problems,omitempty"`
	// Attempted counts operations: every capture of the reference run must
	// come back classified from each run, and restored from each reopen.
	// Failed operations are reported without making the answer wrong.
	Attempted     int      `json:"ops_attempted"`
	Failed        int      `json:"ops_failed"`
	KnownFailures []string `json:"known_failures,omitempty"`

	EndToEnd map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	Runs     []*runResult           `json:"runs"`
}

func newWorkloadReport(w workload) *workloadReport {
	return &workloadReport{Workload: w.Name, Why: w.Why, Correct: true}
}

func (rep *workloadReport) problem(format string, args ...any) {
	rep.Correct = false
	rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
}

// addRuns books runs the report has not seen yet against its reference, the
// first run it was given: operations attempted and failed, and the checks
// that make an answer right.
func (rep *workloadReport) addRuns(runs ...*runResult) {
	for _, r := range runs {
		if slices.Contains(rep.Runs, r) {
			continue
		}
		rep.Runs = append(rep.Runs, r)
		ref := rep.Runs[0]
		who := fmt.Sprintf("%s run %d", r.Workload, len(rep.Runs))
		if r.Traced {
			who += " (traced)"
		}
		rep.Attempted += ref.Captures
		rep.Failed += max(0, ref.Captures-r.Classified)
		if r.Fingerprint != ref.Fingerprint {
			rep.problem("%s: fingerprint %.12s differs from the reference %.12s (%s)", who, r.Fingerprint, ref.Fingerprint, ref.Workload)
		}
		if r.Tweets != ref.Tweets {
			rep.problem("%s: saw %d tweets, the reference %d", who, r.Tweets, ref.Tweets)
		}
		if f1 := r.f1(); f1 < f1Floor {
			rep.problem("%s: spam_f1 %.4f under the floor %.2f", who, f1, f1Floor)
		}
		if got, ok := r.Layers["socialnet.tweets"]; ok && int(got) != r.Tweets {
			rep.problem("%s: subscriber saw %d tweets, socialnet generated %d", who, r.Tweets, int(got))
		}
		if re := r.Reopen; re != nil {
			rep.Attempted += ref.Captures
			rep.Failed += max(0, ref.Captures-re.Restored)
			if re.Err != "" {
				rep.KnownFailures = append(rep.KnownFailures, fmt.Sprintf("%s: reopen failed: %s", who, re.Err))
			} else if re.Restored != ref.Captures {
				rep.KnownFailures = append(rep.KnownFailures, fmt.Sprintf("%s: reopen restored %d of %d captures", who, re.Restored, ref.Captures))
			}
		}
	}
}

func sum(v []float64) float64 {
	total := 0.0
	for _, x := range v {
		total += x
	}
	return total
}

func column(runs []*runResult, f func(*runResult) float64) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = f(r)
	}
	return out
}

// quietHours is the quietest repeat's time for each simulated hour.
func quietHours(runs []*runResult) []float64 {
	hours := make([]float64, len(runs[0].HourS))
	for h := range hours {
		hours[h] = slices.Min(column(runs, func(r *runResult) float64 { return r.HourS[h] }))
	}
	return hours
}

// foldEndToEnd turns a workload's untraced repeats into its end-to-end
// metrics. The sandbox this benchmark is built for slows down by 20–45% for
// seconds to minutes at a time (README, "Noise"), which a median of a handful
// of repeats passes straight through. So every timing is taken from the
// quietest repeat of the thing timed: hour by hour for collection, whose sum
// over the hours is the collection time, and whole for detection and close.
// Set-up is the median the benchmark contract asks for; counts and quality,
// which do not depend on machine speed, are medians too.
func foldEndToEnd(runs []*runResult) map[string]metricValue {
	collect := sum(quietHours(runs))
	setup := median(column(runs, func(r *runResult) float64 { return r.SetupS }))
	detect := slices.Min(column(runs, func(r *runResult) float64 { return r.DetectS }))
	closing := slices.Min(column(runs, func(r *runResult) float64 { return r.CloseS }))
	values := map[string]float64{
		"setup_s":              setup,
		"collect_tweets_per_s": float64(runs[0].Tweets) / collect,
		"detect_s":             detect,
		"run_s":                setup + collect + detect + closing,
		"allocs_per_tweet":     median(column(runs, func(r *runResult) float64 { return float64(r.Mallocs) / float64(r.Tweets) })),
		"peak_rss_mb":          median(column(runs, func(r *runResult) float64 { return r.PeakRSSMB })),
		"spam_f1":              median(column(runs, (*runResult).f1)),
	}
	out := make(map[string]metricValue, len(endToEnd))
	for _, d := range endToEnd {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit, Samples: len(runs)}
	}
	return out
}

// foldLayers turns traced runs into the per-layer metrics of w: medians of
// what the spans measured, plus the numbers derived from untraced runs —
// twin is w untraced, ref the workload w answers to, base the untraced form
// of the wiring that was traced.
func foldLayers(w workload, traced, twin, ref, base []*runResult) map[string]metricValue {
	out := make(map[string]metricValue, len(perLayer))
	for _, d := range perLayer {
		// Times from the quietest traced repeat, as end to end; the rest
		// (counts, sizes, ratios) repeat and take the median.
		fold := median
		if d.Unit == "s" || d.Unit == "ms" {
			fold = slices.Min[[]float64]
		}
		out[d.Name] = metricValue{
			Value:   fold(column(traced, func(r *runResult) float64 { return r.Layers[d.Name] })),
			Unit:    d.Unit,
			Samples: len(traced),
		}
	}
	set := func(name string, v float64, samples int) {
		mv := out[name]
		mv.Value, mv.Samples = v, samples
		out[name] = mv
	}
	// Demoted from end to end (README, "Noise"), so still taken untraced.
	set("sniffer.hour_p90_s", percentile(quietHours(twin), 0.9), len(twin))
	// Quietest run against quietest run, as the end-to-end timings are taken.
	baseRun := slices.Min(column(base, (*runResult).runS))
	tracedRun := slices.Min(column(traced, (*runResult).runS))
	set("trace.overhead_pct", 100*(tracedRun-baseRun)/baseRun, len(base))
	if !w.Stream {
		// What DetectAll spends outside the calls the trace times: today the
		// batch labeler's one-shot clustering.
		detect := median(column(twin, func(r *runResult) float64 { return r.DetectS }))
		set("label.detect_residual_s",
			detect-out["ml.train_s"].Value-out["ml.classify_s"].Value-out["core.attribute_s"].Value, len(twin))
	}
	if w.WAL {
		var recovered []*runResult
		for _, r := range twin {
			if r.Reopen != nil && r.Reopen.Err == "" {
				recovered = append(recovered, r)
			}
		}
		// A reopen that failed leaves both at 0; the report lists it under
		// known failures with the store's error.
		if len(recovered) > 0 {
			set("store.recover_s", median(column(recovered, func(r *runResult) float64 { return r.Reopen.RecoverS })), len(recovered))
			set("store.recovered_captures", median(column(recovered, func(r *runResult) float64 { return float64(r.Reopen.Restored) })), len(recovered))
		}
	}
	if w.Shards > 1 {
		set("shard.collect_ratio", sum(quietHours(ref))/sum(quietHours(twin)), min(len(ref), len(twin)))
	}
	return out
}

// report is a whole session's output file, and the input of -compare.
type report struct {
	Env       envStamp          `json:"env"`
	Options   options           `json:"options"`
	Workloads []*workloadReport `json:"workloads"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// print lists every metric of the report by name with its unit.
func (rep *workloadReport) print(w io.Writer) {
	fmt.Fprintf(w, "%s: correct=%t ops_attempted=%d ops_failed=%d\n", rep.Workload, rep.Correct, rep.Attempted, rep.Failed)
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "  WRONG: %s\n", p)
	}
	for _, k := range rep.KnownFailures {
		fmt.Fprintf(w, "  failed: %s\n", k)
	}
	for _, group := range []struct {
		defs   []metricDef
		values map[string]metricValue
	}{{endToEnd, rep.EndToEnd}, {perLayer, rep.PerLayer}} {
		for _, d := range group.defs {
			if mv, ok := group.values[d.Name]; ok {
				fmt.Fprintf(w, "  %-28s %14.6g %-9s (n=%d, %s is better)\n", d.Name, mv.Value, mv.Unit, mv.Samples, d.Better)
			}
		}
	}
}

// driverLine is the one-line result the benchmark driver reads last.
func (rep *workloadReport) driverLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(rep.EndToEnd)+len(rep.PerLayer))
	for _, values := range []map[string]metricValue{rep.EndToEnd, rep.PerLayer} {
		for name, mv := range values {
			metrics[name] = value{mv.Value, mv.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
}
