package forest

import (
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml/split"
)

// BenchmarkForestFit times ensemble training under the paper deployment
// configuration (70 trees, depth 700) at the default worker count, and
// reports the speedup over a single-worker fit of the same workload (the
// pool fan-out win, ~1 on a single-core runner). The capture cases are
// shaped like the detector's training set on the dense-stream workload
// (captureData); the noisy case is a small 4-feature task.
func BenchmarkForestFit(b *testing.B) {
	b.Run("noisy-2000x4", func(b *testing.B) {
		x, y := noisyData(2000, 11)
		benchFit(b, x, y)
	})
	b.Run("capture-7056x58", func(b *testing.B) {
		x, y := captureData(1)
		benchFit(b, x, y)
	})
}

func benchFit(b *testing.B, x [][]float64, y []bool) {
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

// BenchmarkPresort times the presort a capture-shaped forest fit shares
// across its trees — sorting the 58 columns of 7,056 rows and recording
// their value codes and levels — at one worker and at the default worker
// count, with allocations.
func BenchmarkPresort(b *testing.B) {
	x, _ := captureData(1)
	for _, c := range []struct {
		name    string
		workers int
	}{{"capture-7056x58/workers=1", 1}, {"capture-7056x58/default", 0}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				split.NewPresort(x, c.workers)
			}
		})
	}
}
