package main

import (
	"math"
	"sort"
)

// metricDef declares one metric. BENCHMARK.json repeats these tables for the
// driver; the smoke test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative worsening of an end-to-end metric that counts
	// as a regression; per-layer metrics have none.
	Bound float64
}

// endToEnd is what a user of the sniffer sees, measured on untraced runs
// through the public API and folded over a workload's repeats by
// foldEndToEnd. The timing bounds are as wide as the contract allows because
// the sandbox is that noisy, not because a quarter is a tolerable regression:
// README, "Noise".
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"collect_tweets_per_s", "tweets/s", "higher", 0.25},
	{"detect_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"allocs_per_tweet", "count", "lower", 0.07},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"spam_f1", "ratio", "higher", 0.04},
}

// perLayer is what single layers did in the traced run. A layer that is not
// on a workload's path reports 0 there.
var perLayer = []metricDef{
	{Name: "sniffer.hour_p90_s", Unit: "s", Better: "lower"},
	{Name: "socialnet.world_s", Unit: "s", Better: "lower"},
	{Name: "socialnet.engine_s", Unit: "s", Better: "lower"},
	{Name: "socialnet.tweets", Unit: "count", Better: "higher"},
	{Name: "socialnet.screen_s", Unit: "s", Better: "lower"},
	{Name: "socialnet.screen_calls", Unit: "count", Better: "lower"},
	{Name: "core.rotate_s", Unit: "s", Better: "lower"},
	{Name: "core.rotations", Unit: "count", Better: "lower"},
	{Name: "core.match_s", Unit: "s", Better: "lower"},
	{Name: "core.match_calls", Unit: "count", Better: "lower"},
	{Name: "core.captures", Unit: "count", Better: "higher"},
	{Name: "core.capture_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.attribute_s", Unit: "s", Better: "lower"},
	{Name: "features.extract_s", Unit: "s", Better: "lower"},
	{Name: "features.extract_calls", Unit: "count", Better: "lower"},
	{Name: "label.add_batch_s", Unit: "s", Better: "lower"},
	{Name: "label.add_batches", Unit: "count", Better: "lower"},
	{Name: "label.snapshot_s", Unit: "s", Better: "lower"},
	{Name: "label.spam_labels", Unit: "count", Better: "higher"},
	{Name: "label.manual_checks", Unit: "count", Better: "lower"},
	{Name: "label.detect_residual_s", Unit: "s", Better: "lower"},
	{Name: "ml.train_s", Unit: "s", Better: "lower"},
	{Name: "ml.train_rows", Unit: "count", Better: "higher"},
	{Name: "ml.classify_s", Unit: "s", Better: "lower"},
	{Name: "pipeline.push_wait_s", Unit: "s", Better: "lower"},
	{Name: "pipeline.drain_s", Unit: "s", Better: "lower"},
	{Name: "pipeline.flushes", Unit: "count", Better: "lower"},
	{Name: "pipeline.mean_batch", Unit: "count", Better: "higher"},
	{Name: "store.wal_append_s", Unit: "s", Better: "lower"},
	{Name: "store.wal_appends", Unit: "count", Better: "lower"},
	{Name: "store.wal_mb", Unit: "MB", Better: "lower"},
	{Name: "store.checkpoint_encode_s", Unit: "s", Better: "lower"},
	{Name: "store.checkpoint_write_s", Unit: "s", Better: "lower"},
	{Name: "store.checkpoints", Unit: "count", Better: "lower"},
	{Name: "store.checkpoint_last_mb", Unit: "MB", Better: "lower"},
	{Name: "store.disk_mb", Unit: "MB", Better: "lower"},
	{Name: "store.recover_s", Unit: "s", Better: "lower"},
	{Name: "store.recovered_captures", Unit: "count", Better: "higher"},
	{Name: "shard.collect_ratio", Unit: "ratio", Better: "higher"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.total_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.unattributed_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// spanMetrics maps a span name to the metrics it feeds: the Σ self time of
// the spans of that name and how many there were.
var spanMetrics = []struct{ span, seconds, calls string }{
	{"socialnet.world", "socialnet.world_s", ""},
	{"socialnet.engine", "socialnet.engine_s", ""},
	{"socialnet.screen", "socialnet.screen_s", "socialnet.screen_calls"},
	{"core.rotate", "core.rotate_s", "core.rotations"},
	{"core.match", "core.match_s", "core.match_calls"},
	{"core.attribute", "core.attribute_s", ""},
	{"features.extract", "features.extract_s", "features.extract_calls"},
	{"label.add_batch", "label.add_batch_s", "label.add_batches"},
	{"label.snapshot", "label.snapshot_s", ""},
	{"ml.train", "ml.train_s", ""},
	{"ml.classify", "ml.classify_s", ""},
	{"pipeline.push", "pipeline.push_wait_s", ""},
	{"pipeline.drain", "pipeline.drain_s", ""},
	{"store.wal_append", "store.wal_append_s", "store.wal_appends"},
	{"store.checkpoint_encode", "store.checkpoint_encode_s", ""},
	{"store.checkpoint_write", "store.checkpoint_write_s", "store.checkpoints"},
}

// layerMetrics turns a trace summary into the span-derived per-layer metrics.
// The caller adds the counts it holds itself.
func layerMetrics(sum *traceSummary, spans int) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, sm := range spanMetrics {
		t := sum.ByName[sm.span]
		out[sm.seconds] = t.SelfS
		if sm.calls != "" {
			out[sm.calls] = float64(t.Calls)
		}
	}
	for _, stage := range []string{"pipeline.feature", "pipeline.label", "pipeline.detect"} {
		out["pipeline.flushes"] += float64(sum.ByName[stage].Calls)
	}
	out["trace.spans"] = float64(spans)
	out["trace.unattributed_s"] = sum.UnattributedS
	return out
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the linearly interpolated p-quantile of v (0 ≤ p ≤ 1).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
