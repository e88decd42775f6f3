package forest

import (
	"testing"
	"time"
)

// BenchmarkForestFit times ensemble training under the paper deployment
// configuration (70 trees, depth 700) at the default worker count, and
// reports the speedup over a single-worker fit of the same workload (the
// pool fan-out win, ~1 on a single-core runner).
func BenchmarkForestFit(b *testing.B) {
	x, y := noisyData(2000, 11)
	cfg := PaperConfig()

	fitOnce := func(workers int) time.Duration {
		c := cfg
		c.Workers = workers
		f := New(c)
		start := time.Now()
		if err := f.Fit(x, y); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	fitOnce(1) // warm caches
	seq := fitOnce(1)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := New(cfg)
		if err := f.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
	if par := b.Elapsed() / time.Duration(b.N); par > 0 {
		b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup-vs-1worker")
	}
}
