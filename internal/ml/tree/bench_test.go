package tree

import (
	"math/rand"
	"testing"
	"time"
)

func benchData(n, d int, seed int64) ([][]float64, []bool) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]bool, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x[i] = row
		y[i] = row[0]+row[1]*row[2] > 0.5
		if rng.Float64() < 0.05 {
			y[i] = !y[i]
		}
	}
	return x, y
}

// BenchmarkTreeFit times plain-CART induction (all features, effectively
// unbounded depth) on the presorted-column engine and reports the
// speedup over the legacy per-node-sort reference as a custom metric.
func BenchmarkTreeFit(b *testing.B) {
	x, y := benchData(2000, 17, 1)

	fitRefOnce := func() time.Duration {
		tr := New(Config{MaxDepth: 700, Seed: 1})
		start := time.Now()
		tr.fitRef(x, y)
		return time.Since(start)
	}
	fitRefOnce() // warm caches
	ref := fitRefOnce()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New(Config{MaxDepth: 700, Seed: 1})
		if err := tr.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
	if per := b.Elapsed() / time.Duration(b.N); per > 0 {
		b.ReportMetric(ref.Seconds()/per.Seconds(), "speedup-vs-reference")
	}
}
