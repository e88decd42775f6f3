package pseudohoneypot

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/experiments"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// The per-table/per-figure benchmarks share one experiments runner: the
// heavy simulation phases execute once (outside the timed region) and each
// benchmark times the regeneration of its table or figure, reporting the
// headline quantity of that experiment as a custom metric.
var (
	_benchOnce   sync.Once
	_benchRunner *experiments.Runner
)

func benchRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	_benchOnce.Do(func() {
		_benchRunner = experiments.NewRunner(experiments.SmallScale())
	})
	return _benchRunner
}

// BenchmarkTableII regenerates the attribute sample-value selection table.
func BenchmarkTableII(b *testing.B) {
	r := benchRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.TableII(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIII regenerates the ground-truth labeling breakdown.
func BenchmarkTableIII(b *testing.B) {
	r := benchRunner(b)
	warmGroundTruth(b, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.TableIII(); err != nil {
			b.Fatal(err)
		}
	}
	gt, _ := r.RunGroundTruth()
	b.ReportMetric(float64(gt.Labels.TotalSpams()), "labeled-spams")
}

// BenchmarkTableIV regenerates the five-classifier 10-fold comparison.
func BenchmarkTableIV(b *testing.B) {
	r := benchRunner(b)
	warmGroundTruth(b, r)
	if _, err := r.RunTableIV(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.TableIV(); err != nil {
			b.Fatal(err)
		}
	}
	metrics, _ := r.RunTableIV()
	b.ReportMetric(metrics[core.ClassifierRF].Precision, "rf-precision")
	b.ReportMetric(metrics[core.ClassifierRF].FPR, "rf-fpr")
}

// BenchmarkTableV regenerates the top-attributes-by-spammers table.
func BenchmarkTableV(b *testing.B) {
	r := benchRunner(b)
	warmMain(b, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.TableV(); err != nil {
			b.Fatal(err)
		}
	}
	main, _ := r.RunMain()
	b.ReportMetric(float64(main.Spammers), "detected-spammers")
}

// BenchmarkTableVI regenerates the PGE ranking.
func BenchmarkTableVI(b *testing.B) {
	r := benchRunner(b)
	warmMain(b, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.TableVI(); err != nil {
			b.Fatal(err)
		}
	}
	main, _ := r.RunMain()
	if len(main.PGERows) > 0 {
		b.ReportMetric(main.PGERows[0].PGE, "top-pge")
	}
}

// BenchmarkTableVII regenerates the honeypot comparison.
func BenchmarkTableVII(b *testing.B) {
	r := benchRunner(b)
	warmAdvanced(b, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.TableVII(); err != nil {
			b.Fatal(err)
		}
	}
	adv, _ := r.RunAdvanced()
	if adv.HoneypotPGE > 0 {
		b.ReportMetric(adv.AdvancedPGE/adv.HoneypotPGE, "pge-speedup-vs-honeypot")
	}
}

// BenchmarkFigure2 regenerates the spams-per-spammer distribution.
func BenchmarkFigure2(b *testing.B) {
	r := benchRunner(b)
	warmMain(b, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
	main, _ := r.RunMain()
	ones := 0
	for _, n := range main.SpamsPerSpammer {
		if n == 1 {
			ones++
		}
	}
	if len(main.SpamsPerSpammer) > 0 {
		b.ReportMetric(float64(ones)/float64(len(main.SpamsPerSpammer)), "single-spam-frac")
	}
}

// BenchmarkFigure3 regenerates the 11 per-attribute panels.
func BenchmarkFigure3(b *testing.B) {
	r := benchRunner(b)
	warmMain(b, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates the hashtag-category panel.
func BenchmarkFigure4(b *testing.B) {
	r := benchRunner(b)
	warmMain(b, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 regenerates the trending-category panel.
func BenchmarkFigure5(b *testing.B) {
	r := benchRunner(b)
	warmMain(b, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6 regenerates the advanced-vs-random capture curves.
func BenchmarkFigure6(b *testing.B) {
	r := benchRunner(b)
	warmAdvanced(b, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
	adv, _ := r.RunAdvanced()
	if adv.RandomSpammers > 0 {
		b.ReportMetric(float64(adv.AdvancedSpammers)/float64(adv.RandomSpammers),
			"advanced-vs-random")
	}
}

func warmGroundTruth(b *testing.B, r *experiments.Runner) {
	b.Helper()
	if _, err := r.RunGroundTruth(); err != nil {
		b.Fatal(err)
	}
}

func warmMain(b *testing.B, r *experiments.Runner) {
	b.Helper()
	if _, err := r.RunMain(); err != nil {
		b.Fatal(err)
	}
}

func warmAdvanced(b *testing.B, r *experiments.Runner) {
	b.Helper()
	if _, err := r.RunAdvanced(); err != nil {
		b.Fatal(err)
	}
}

// --- Phase benchmarks: the actual simulation cost of each experiment ---

// BenchmarkPhaseEngineHour times one hour of world traffic.
func BenchmarkPhaseEngineHour(b *testing.B) {
	cfg := DefaultConfig()
	cfg.NumAccounts = 4000
	cfg.OrganicTweetsPerHour = 800
	sim, err := NewSimulation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunHours(1)
	}
}

// BenchmarkPhaseSelection times one full standard-network rotation.
func BenchmarkPhaseSelection(b *testing.B) {
	cfg := DefaultConfig()
	cfg.NumAccounts = 6000
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m := core.NewMonitor(core.MonitorConfig{
		Specs:      core.StandardSpecs(2),
		ReuseNodes: true,
		Seed:       1,
	}, &core.LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Rotate(now, time.Hour)
	}
}

// BenchmarkPhaseDetect times end-to-end label+train+classify on a fresh
// small corpus.
func BenchmarkPhaseDetect(b *testing.B) {
	cfg := DefaultConfig()
	cfg.NumAccounts = 2000
	cfg.OrganicTweetsPerHour = 400
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim, err := NewSimulation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sniffer, err := NewSniffer(sim, SnifferConfig{
			Specs: RandomSpec(100),
			Seed:  int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		sim.RunHours(6)
		b.StartTimer()
		if _, err := sniffer.DetectAll(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		sniffer.Close()
	}
}

// --- Ablation benches (DESIGN.md §5): each reports the quality impact of
// one design choice as a custom metric. ---

// ablationYield measures spammer yield per node-hour for a monitor config
// over a fixed world and duration, scoring with generative ground truth so
// ablations isolate the monitoring design from detector quality. With
// static set, the node set is selected once and held for the whole run
// instead of rotating hourly.
func ablationYield(b *testing.B, hours int, static bool, mutate func(*core.MonitorConfig)) (pge, contamination float64) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.NumAccounts = 4000
	cfg.OrganicTweetsPerHour = 800
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e := socialnet.NewEngine(w)
	mcfg := core.MonitorConfig{
		Specs:      core.StandardSpecs(2),
		ActiveOnly: true,
		Seed:       1,
	}
	if mutate != nil {
		mutate(&mcfg)
	}
	m := core.NewMonitor(mcfg, &core.LocalScreener{
		World: w, Rng: rand.New(rand.NewSource(2)),
	})
	var detach func()
	if static {
		e.OnHourStart(func(hour int, now time.Time) {
			if hour == 0 {
				m.Rotate(now, time.Hour)
			} else {
				m.AccrueHours(time.Hour)
			}
		})
		world := w
		detach = e.Subscribe(func(t *socialnet.Tweet) {
			m.OnTweet(t, world.Account)
		})
	} else {
		detach = core.Attach(m, e)
	}
	defer detach()
	e.RunHours(hours)

	verdicts := make([]bool, len(m.Captures()))
	spamCaptures, spamToSpammerNodes := 0, 0
	for i, c := range m.Captures() {
		verdicts[i] = c.Tweet.Spam
		if r := c.ReceiverSnapshot(); c.Tweet.Spam && r != nil {
			spamCaptures++
			if r.Kind == socialnet.KindSpammer {
				spamToSpammerNodes++
			}
		}
	}
	m.AttributeSpam(verdicts)
	spammers := make(map[socialnet.AccountID]struct{})
	nodeHours := 0.0
	for _, g := range m.Groups() {
		nodeHours += g.NodeHours
		for id := range g.Spammers {
			spammers[id] = struct{}{}
		}
	}
	if spamCaptures > 0 {
		contamination = float64(spamToSpammerNodes) / float64(spamCaptures)
	}
	if nodeHours == 0 {
		return 0, contamination
	}
	return float64(len(spammers)) / nodeHours, contamination
}

// BenchmarkAblationActiveOnly compares active-only selection (paper §III-D)
// against selection over all accounts.
func BenchmarkAblationActiveOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		withActive, _ := ablationYield(b, 12, false, nil)
		withoutActive, _ := ablationYield(b, 12, false, func(c *core.MonitorConfig) {
			c.ActiveOnly = false
		})
		b.ReportMetric(withActive, "pge-active-only")
		b.ReportMetric(withoutActive, "pge-any-account")
	}
}

// BenchmarkAblationRotation compares hourly rotation (portability,
// paper §III-D) against a truly static node set selected once and held for
// the whole run.
func BenchmarkAblationRotation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rotating, _ := ablationYield(b, 24, false, nil)
		static, _ := ablationYield(b, 24, true, nil)
		b.ReportMetric(rotating, "pge-rotating")
		b.ReportMetric(static, "pge-static")
	}
}

// BenchmarkAblationHygiene compares selection hygiene (friend/follower
// ratio bound) against unfiltered selection.
func BenchmarkAblationHygiene(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with, withCont := ablationYield(b, 12, false, nil)
		without, withoutCont := ablationYield(b, 12, false, func(c *core.MonitorConfig) {
			c.MaxRatio = -1
		})
		b.ReportMetric(with, "pge-hygiene")
		b.ReportMetric(without, "pge-no-hygiene")
		b.ReportMetric(withCont, "spam-to-spammer-nodes-hygiene")
		b.ReportMetric(withoutCont, "spam-to-spammer-nodes-no-hygiene")
	}
}

// BenchmarkAblationMentionOnly quantifies the paper's §III-E design choice:
// mention-filtered monitoring versus ingesting the full firehose. It
// reports the workload ratio (tweets processed) and the share of the
// world's spam each sees.
func BenchmarkAblationMentionOnly(b *testing.B) {
	cfg := DefaultConfig()
	cfg.NumAccounts = 4000
	cfg.OrganicTweetsPerHour = 800
	for i := 0; i < b.N; i++ {
		w, err := socialnet.NewWorld(cfg)
		if err != nil {
			b.Fatal(err)
		}
		e := socialnet.NewEngine(w)
		m := core.NewMonitor(core.MonitorConfig{
			Specs:      core.StandardSpecs(2),
			ActiveOnly: true,
			Seed:       1,
		}, &core.LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
		detach := core.Attach(m, e)
		var firehose, firehoseSpam int
		e.Subscribe(func(t *socialnet.Tweet) {
			firehose++
			if t.Spam {
				firehoseSpam++
			}
		})
		e.RunHours(12)
		detach()
		captured := len(m.Captures())
		capturedSpam := 0
		for _, c := range m.Captures() {
			if c.Tweet.Spam {
				capturedSpam++
			}
		}
		if captured > 0 && firehoseSpam > 0 {
			b.ReportMetric(float64(firehose)/float64(captured), "workload-reduction-x")
			b.ReportMetric(float64(capturedSpam)/float64(firehoseSpam), "spam-coverage")
			b.ReportMetric(float64(capturedSpam)/float64(captured), "spam-density-monitored")
			b.ReportMetric(float64(firehoseSpam)/float64(firehose), "spam-density-firehose")
		}
	}
}
