package source

import (
	"math/rand"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// BenchmarkIngest measures what consuming the firehose through a Source
// costs, per post, with Monitor.Match — the stage every ingested post hits
// — as the per-post work. One recorded 6-hour firehose is replayed through
// a scripted in-memory source in three topologies:
//
//   - direct: the source delivers straight to the match path.
//   - mux1: the same source behind a single-child mux; child 0 is an
//     identity pass-through, so this isolates the mux machinery (per-hour
//     buffering, the merge sort, delivery fan-out).
//   - mux2: two children carrying half the firehose each — the multi-source
//     layout, paying namespacing (tweet clones) for the second child on top
//     of the merge.
//
// No bench/ workload runs a mux, so this is where its overhead is read:
// compare posts/s across the three.
func BenchmarkIngest(b *testing.B) {
	const hours, nodes = 6, 250
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 2500
	cfg.OrganicTweetsPerHour = 1500
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e := socialnet.NewEngine(w)
	start := e.Now()
	firehose := make([][]*socialnet.Tweet, hours)
	hour, posts := -1, 0
	e.OnHourStart(func(h int, _ time.Time) { hour = h })
	e.Subscribe(func(t *socialnet.Tweet) {
		firehose[hour] = append(firehose[hour], t)
		posts++
	})
	e.RunHours(hours)
	halfA, halfB := make([][]*socialnet.Tweet, hours), make([][]*socialnet.Tweet, hours)
	for i, h := range firehose {
		halfA[i], halfB[i] = h[:len(h)/2], h[len(h)/2:]
	}
	accounts := make(map[socialnet.AccountID]*socialnet.Account, w.NumAccounts())
	for _, a := range w.Accounts() {
		accounts[a.ID] = a
	}
	child := func(id string, hours [][]*socialnet.Tweet) *fakeSource {
		return &fakeSource{id: id, hours: hours, accounts: accounts, start: start}
	}

	for _, topo := range []struct {
		name  string
		build func() Source
	}{
		{"direct", func() Source { return child("twitter", firehose) }},
		{"mux1", func() Source { return NewMux(child("twitter", firehose)) }},
		{"mux2", func() Source { return NewMux(child("twitter", halfA), child("reddit", halfB)) }},
	} {
		b.Run(topo.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				src := topo.build()
				m := core.NewMonitor(core.MonitorConfig{
					Specs:      core.RandomSpec(nodes),
					ActiveOnly: true,
					Seed:       11,
				}, &core.LocalScreener{World: w, Rng: rand.New(rand.NewSource(12))})
				src.OnHourStart(func(_ int, now time.Time) { m.Rotate(now, time.Hour) })
				delivered := 0
				src.Subscribe(func(p Post) {
					delivered++
					_ = m.Match(p.Tweet, src.Lookup)
				})
				b.StartTimer()
				if err := src.RunHours(hours); err != nil {
					b.Fatal(err)
				}
				if delivered != posts {
					b.Fatalf("delivered %d of %d posts", delivered, posts)
				}
			}
			b.ReportMetric(float64(posts)*float64(b.N)/b.Elapsed().Seconds(), "posts/s")
		})
	}
}
