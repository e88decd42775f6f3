package core

import (
	"maps"
	"math/rand"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// BenchmarkDetectorClassify times batch classification of a captured
// corpus at the default worker count and reports the speedup over a
// single-worker pass (driven through the PH_WORKERS knob) as a custom
// metric.
func BenchmarkDetectorClassify(b *testing.B) {
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 2000
	cfg.OrganicTweetsPerHour = 400
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e := socialnet.NewEngine(w)
	m := NewMonitor(MonitorConfig{
		Specs: RandomSpec(120),
		Seed:  1,
	}, &LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
	detach := Attach(m, e)
	defer detach()
	e.RunHours(8)

	captures := m.Captures()
	labels := labelCaptures(captures, w)
	clf, err := NewClassifier(ClassifierRF, 1)
	if err != nil {
		b.Fatal(err)
	}
	det := NewDetector(clf)
	if err := det.Train(captures, labels); err != nil {
		b.Fatal(err)
	}

	classifyOnce := func(workers string) time.Duration {
		b.Setenv(parallel.EnvWorkers, workers)
		start := time.Now()
		det.Classify(captures)
		return time.Since(start)
	}
	classifyOnce("1") // warm caches
	seq := classifyOnce("1")
	b.Setenv(parallel.EnvWorkers, "")

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Classify(captures)
	}
	par := b.Elapsed() / time.Duration(b.N)
	if par > 0 {
		b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup-vs-1worker")
	}
}

// BenchmarkRotate times one hourly node rotation (paper §III-D) of the
// 123-selector StandardSpecs(4) plan over the 20k-account world bench/
// runs: one op is one rotation, so ns/op and allocs/op read as ns/rotation
// and allocs/rotation. "cold" is hour 0 — nobody is Active yet, so every
// group takes the dormant fallback and the sparse ones the reuse fallback
// (≈ 2 scans per group); "warm" is hour 3 of a monitored run, with active
// candidates and the exclusion set three rotations have filled.
func BenchmarkRotate(b *testing.B) {
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 20000
	cfg.OrganicTweetsPerHour = 4000
	newMonitor := func(w *socialnet.World) *Monitor {
		return NewMonitor(
			MonitorConfig{Specs: StandardSpecs(4), ActiveOnly: true, Seed: 1},
			&LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
	}
	// rotate runs b.N rotations from the same monitor state. Each gets its
	// own instant, as each hour of a run does: a repeated instant on an
	// unchanged world would be served by the previous iteration's
	// screening index and hide the cost of building it.
	rotate := func(b *testing.B, m *Monitor, now time.Time) {
		used := m.used
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m.used = maps.Clone(used)
			b.StartTimer()
			m.Rotate(now.Add(time.Duration(i)), time.Hour)
		}
	}

	b.Run("cold", func(b *testing.B) {
		w, err := socialnet.NewWorld(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rotate(b, newMonitor(w), socialnet.NewEngine(w).Now())
	})
	b.Run("warm", func(b *testing.B) {
		w, err := socialnet.NewWorld(cfg)
		if err != nil {
			b.Fatal(err)
		}
		e := socialnet.NewEngine(w)
		m := newMonitor(w)
		defer Attach(m, e)()
		e.RunHours(3)
		rotate(b, m, e.Now())
	})
}

// benchStreamMonitor builds a monitor with a realistic node set and a
// tweet mix of hits and misses for the OnTweet benchmarks.
func benchStreamMonitor(b *testing.B, tracer *trace.Tracer) (*Monitor, []*socialnet.Tweet, func(socialnet.AccountID) *socialnet.Account) {
	b.Helper()
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 2000
	cfg.OrganicTweetsPerHour = 400
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e := socialnet.NewEngine(w)
	m := NewMonitor(MonitorConfig{
		Specs:  RandomSpec(120),
		Seed:   1,
		Tracer: tracer,
	}, &LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
	var tweets []*socialnet.Tweet
	cancel := e.Subscribe(func(t *socialnet.Tweet) { tweets = append(tweets, t) })
	e.OnHourStart(func(hour int, now time.Time) { m.Rotate(now, time.Hour) })
	e.RunHours(2)
	cancel()
	if len(tweets) == 0 {
		b.Fatal("no tweets generated")
	}
	return m, tweets, w.Account
}

// BenchmarkOnTweetUntraced is the baseline stream path with the default
// disabled tracer: misses allocate nothing, tracing costs one atomic load.
func BenchmarkOnTweetUntraced(b *testing.B) {
	m, tweets, lookup := benchStreamMonitor(b, trace.New(trace.Config{Enabled: false}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.OnTweet(tweets[i%len(tweets)], lookup)
	}
}

// BenchmarkOnTweetTraced is the same stream replay with tracing enabled:
// every hit additionally records a capture trace with capture and
// feature_extract spans into the ring buffer. Compare against
// BenchmarkOnTweetUntraced for the tracing overhead (DESIGN.md §11).
func BenchmarkOnTweetTraced(b *testing.B) {
	m, tweets, lookup := benchStreamMonitor(b, trace.New(trace.Config{Enabled: true}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.OnTweet(tweets[i%len(tweets)], lookup)
	}
}
