package boost

import (
	"testing"
	"time"
)

// BenchmarkBoostFit times gradient-boosted training (paper-style EGB
// shape: 100 rounds of depth-3 regression trees) on the presorted-column
// engine and reports the speedup over the legacy per-node-sort reference
// as a custom metric.
func BenchmarkBoostFit(b *testing.B) {
	x, y := circleData(2000, 1)
	cfg := Config{Rounds: 100, MaxDepth: 3, Seed: 1}

	fitRefOnce := func() time.Duration {
		bst := New(cfg)
		start := time.Now()
		bst.fitRef(x, y)
		return time.Since(start)
	}
	fitRefOnce() // warm caches
	ref := fitRefOnce()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bst := New(cfg)
		if err := bst.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
	if per := b.Elapsed() / time.Duration(b.N); per > 0 {
		b.ReportMetric(ref.Seconds()/per.Seconds(), "speedup-vs-reference")
	}
}
