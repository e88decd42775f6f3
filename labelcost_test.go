package pseudohoneypot

import (
	"testing"
)

// TestLabelProbeCost runs the paper's selector plan on a world a tenth of
// the paper's (20,000 accounts, 4,000 organic tweets an hour,
// StandardSpecs(10), seed 1) for two spans of H hours, and compares the
// labeler's work per probe in the second span with the first, read off
// its work counters. The counts are a function of the seed, so the bounds
// can be tight.
//
// The image grouper's distance checks per user joined must stay nearly
// flat (0.062 and 0.084 here): a linear scan checks every representative
// below the group a hash joins, and all of them for a hash that opens
// one, so its checks per user grow with the number of groups. The near-duplicate probes still
// walk every earlier member of a shared bucket, so their candidates per
// probe grow with the corpus; their bound holds them to the growth they
// have, and a probe that skips whole sets should tighten it.
func TestLabelProbeCost(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scaled paper plan for 8 simulated hours")
	}
	const hours = 4
	cfg := DefaultConfig()
	cfg.NumAccounts = 20_000
	cfg.OrganicTweetsPerHour = 4_000
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetricsRegistry()
	sn, err := NewSniffer(sim, SnifferConfig{Specs: StandardSpecs(10), Seed: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	// totals are the work counters and their probe counts after a span.
	type totals struct{ imageChecks, tweetCands, descCands, tweets, users float64 }
	run := func() totals {
		t.Helper()
		if err := sn.RunHours(hours); err != nil {
			t.Fatal(err)
		}
		sn.drainPipeline()
		tweets, users := sn.tail.labels.Len()
		fams := reg.Snapshot()
		return totals{
			imageChecks: counterTotal(fams, "ph_label_image_checks_total", nil),
			tweetCands:  counterTotal(fams, "ph_label_probe_candidates_total", map[string]string{"index": "tweet"}),
			descCands:   counterTotal(fams, "ph_label_probe_candidates_total", map[string]string{"index": "description"}),
			tweets:      float64(tweets),
			users:       float64(users),
		}
	}
	first := run()
	both := run()
	for _, m := range []struct {
		name      string
		work, per func(totals) float64
		factor    float64
	}{
		{"image checks per user", func(c totals) float64 { return c.imageChecks }, func(c totals) float64 { return c.users }, 1.5},
		{"candidates per tweet probe", func(c totals) float64 { return c.tweetCands }, func(c totals) float64 { return c.tweets }, 3},
		{"candidates per description probe", func(c totals) float64 { return c.descCands }, func(c totals) float64 { return c.users }, 3},
	} {
		at := m.work(first) / m.per(first)
		then := (m.work(both) - m.work(first)) / (m.per(both) - m.per(first))
		t.Logf("%s: %.3f in hours 0–%d, %.3f in hours %d–%d", m.name, at, hours, then, hours, 2*hours)
		if at <= 0 {
			t.Fatalf("%s is %v: the counter sees no work", m.name, at)
		}
		if then > m.factor*at {
			t.Errorf("%s grew %.2f× from the first span to the second, bound %.1f×", m.name, then/at, m.factor)
		}
	}
}
