package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/features"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/honeypot"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/report"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// TableII reproduces the paper's Table II: the profile-based attribute
// sample values and the number of accounts one selection round actually
// finds for each attribute.
func (r *Runner) TableII() (*report.Table, error) {
	worldCfg := r.scale.World
	worldCfg.Seed += 40
	w, err := socialnet.NewWorld(worldCfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(worldCfg.Seed + 1))
	m := core.NewMonitor(core.MonitorConfig{
		Specs: core.StandardSpecs(r.scale.NodesPerValue),
		Seed:  worldCfg.Seed + 2,
	}, &core.LocalScreener{World: w, Rng: rng})
	m.Rotate(socialnet.NewEngine(w).Now(), 0)

	// Count the accounts one selection round found per attribute.
	counts := make(map[socialnet.Attribute]int)
	for _, gis := range m.CurrentNodes() {
		for _, gi := range gis {
			attr := m.Groups()[gi].Spec.Selector.Attr
			if attr.Numeric() {
				counts[attr]++
			}
		}
	}

	t := &report.Table{
		Title:   "Table II — profile-based attributes and their sample values",
		Headers: []string{"Index", "Attribute", "Sample values", "Selected accounts"},
	}
	for i, attr := range socialnet.ProfileAttributes {
		vals := ""
		for j, v := range core.SampleValues[attr] {
			if j > 0 {
				vals += " "
			}
			vals += socialnet.FormatSampleValue(v)
		}
		t.AddRow(i+1, attr.String(), vals, counts[attr])
	}
	return t, nil
}

// TableIII reproduces the labeled spams/spammers per method (paper §V-C).
func (r *Runner) TableIII() (*report.Table, error) {
	gt, err := r.RunGroundTruth()
	if err != nil {
		return nil, err
	}
	totalTweets := len(gt.Corpus.Tweets)
	totalUsers := len(gt.Corpus.Users)
	t := &report.Table{
		Title: fmt.Sprintf(
			"Table III — ground-truth labels by method (tweets: %d, users: %d)",
			totalTweets, totalUsers),
		Headers: []string{"Category", "# of spams", "% of tweets", "# of spammers", "% of users"},
	}
	for _, c := range gt.Labels.Counts() {
		t.AddRow(
			c.Method.String(),
			c.Spams,
			pct(c.Spams, totalTweets),
			c.Spammers,
			pct(c.Spammers, totalUsers),
		)
	}
	t.AddRow("Total",
		gt.Labels.TotalSpams(), pct(gt.Labels.TotalSpams(), totalTweets),
		gt.Labels.TotalSpammers(), pct(gt.Labels.TotalSpammers(), totalUsers))
	return t, nil
}

// TableIV reproduces the classifier comparison under 10-fold CV.
func (r *Runner) TableIV() (*report.Table, error) {
	metrics, err := r.RunTableIV()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Table IV — classifier comparison (10-fold cross-validation)",
		Headers: []string{"Method", "Accuracy", "Precision", "Recall", "False Positive"},
	}
	for _, name := range core.ClassifierNames {
		m := metrics[name]
		t.AddRow(string(name), m.Accuracy, m.Precision, m.Recall, m.FPR)
	}
	return t, nil
}

// TableV reproduces the top-10 attributes by captured spammers.
func (r *Runner) TableV() (*report.Table, error) {
	main, err := r.RunMain()
	if err != nil {
		return nil, err
	}
	sums := core.SummarizeByAttribute(main.Monitor.Groups())
	t := &report.Table{
		Title:   "Table V — top 10 attributes by captured spammers",
		Headers: []string{"Index", "Attribute", "Tweets", "Spams", "Spammers"},
	}
	for i, s := range sums {
		if i >= 10 {
			break
		}
		t.AddRow(i+1, s.Label, s.Tweets, s.Spams, s.Spammers)
	}
	return t, nil
}

// TableVI reproduces the top-10 sample values by PGE.
func (r *Runner) TableVI() (*report.Table, error) {
	main, err := r.RunMain()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Table VI — top 10 sampling attributes by PGE",
		Headers: []string{"Rank", "Attribute description", "Spammers", "Node-hours", "PGE"},
	}
	for i, row := range main.PGERows {
		if i >= 10 {
			break
		}
		t.AddRow(i+1, row.Selector.String(), row.Spammers, row.NodeHours, row.PGE)
	}
	return t, nil
}

// TableVII reproduces the honeypot comparison: the published systems'
// constants plus this run's advanced pseudo-honeypot and the traditional
// honeypot simulated in the same world.
func (r *Runner) TableVII() (*report.Table, error) {
	adv, err := r.RunAdvanced()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: "Table VII — pseudo-honeypot vs honeypot-based solutions",
		Headers: []string{
			"System", "Running duration", "# nodes", "# spams", "# spammers", "PGE",
		},
	}
	dash := func(v int) string {
		if v < 0 {
			return "-"
		}
		return fmt.Sprintf("%d", v)
	}
	for _, row := range honeypot.LiteratureRows() {
		t.AddRow(row.System, row.Duration, row.Nodes, dash(row.Spams), dash(row.Spammers), row.PGE)
	}
	t.AddRow("Simulated traditional honeypot (this world)",
		fmt.Sprintf("%d hours", adv.Hours), adv.AdvancedNodes, "-",
		adv.HoneypotSpammers, adv.HoneypotPGE)
	t.AddRow("Advanced pseudo-honeypot (this world)",
		fmt.Sprintf("%d hours", adv.Hours), adv.AdvancedNodes,
		adv.AdvancedSpams, adv.AdvancedSpammers, adv.AdvancedPGE)
	return t, nil
}

// TopFeatures ranks the trained RF detector's most important features —
// not a paper table, but the natural companion to Table IV: it shows which
// of the 58 features the deployed model actually leans on (the behavioural
// mention-time and source signals, in both the paper's telling and ours).
func (r *Runner) TopFeatures(k int) (*report.Table, error) {
	main, err := r.RunMain()
	if err != nil {
		return nil, err
	}
	imp := main.Detector.FeatureImportance()
	if imp == nil {
		return nil, fmt.Errorf("experiments: detector exposes no importances")
	}
	type row struct {
		idx int
		val float64
	}
	rows := make([]row, len(imp))
	for i, v := range imp {
		rows[i] = row{idx: i, val: v}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].val > rows[b].val })
	t := &report.Table{
		Title:   "Detector feature importance (random forest, mean Gini decrease)",
		Headers: []string{"Rank", "Feature", "Importance"},
	}
	for i, rw := range rows {
		if i >= k {
			break
		}
		t.AddRow(i+1, features.Name(rw.idx), rw.val)
	}
	return t, nil
}

// SpeedupOverLiterature returns the advanced system's PGE divided by the
// best published honeypot PGE (the paper reports ≥19 at full scale), and
// its PGE divided by the traditional honeypot simulated in the same world
// (the scale-independent comparison).
func (r *Runner) SpeedupOverLiterature() (vsLiterature, vsSimulated float64, err error) {
	adv, err := r.RunAdvanced()
	if err != nil {
		return 0, 0, err
	}
	vsLiterature = adv.AdvancedPGE / honeypot.BestLiteraturePGE()
	if adv.HoneypotPGE > 0 {
		vsSimulated = adv.AdvancedPGE / adv.HoneypotPGE
	}
	return vsLiterature, vsSimulated, nil
}

func pct(part, total int) string {
	if total == 0 {
		return "0.00"
	}
	return fmt.Sprintf("%.2f", 100*float64(part)/float64(total))
}
