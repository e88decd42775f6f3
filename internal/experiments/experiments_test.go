package experiments

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// sharedRunner is reused across tests: the Runner caches each phase, so
// the expensive simulations execute once per test binary.
var (
	_runnerOnce sync.Once
	_runner     *Runner
)

func sharedRunner(t *testing.T) *Runner {
	t.Helper()
	_runnerOnce.Do(func() {
		_runner = NewRunner(SmallScale())
	})
	return _runner
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"", "small", "medium", "full"} {
		if _, ok := ScaleByName(name); !ok {
			t.Fatalf("ScaleByName(%q) failed", name)
		}
	}
	if _, ok := ScaleByName("bogus"); ok {
		t.Fatal("ScaleByName accepted bogus scale")
	}
}

func TestScalesValidate(t *testing.T) {
	for _, s := range []Scale{SmallScale(), MediumScale(), FullScale()} {
		if err := s.World.Validate(); err != nil {
			t.Fatalf("scale %s world config invalid: %v", s.Name, err)
		}
		if s.MainHours <= 0 || s.GroundTruthHours <= 0 || s.AdvancedHours <= 0 {
			t.Fatalf("scale %s has zero-hour phases", s.Name)
		}
	}
}

func TestTableIIStructure(t *testing.T) {
	r := sharedRunner(t)
	tbl, err := r.TableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 11 {
		t.Fatalf("Table II rows = %d, want 11", len(tbl.Rows))
	}
	// Every profile attribute must find at least one account per
	// selection round.
	for _, row := range tbl.Rows {
		if row[3] == "0" {
			t.Errorf("attribute %q selected no accounts", row[1])
		}
	}
	out := tbl.Render()
	if !strings.Contains(out, "friends count") || !strings.Contains(out, "10k") {
		t.Fatal("Table II render missing expected content")
	}
}

// Table III shape: suspended labels the most spam, manual the least; all
// four stages participate.
func TestTableIIIShape(t *testing.T) {
	r := sharedRunner(t)
	gt, err := r.RunGroundTruth()
	if err != nil {
		t.Fatal(err)
	}
	counts := gt.Labels.Counts()
	byMethod := make(map[string]int)
	for _, c := range counts {
		byMethod[c.Method.String()] = c.Spams
	}
	if byMethod["Suspended"] == 0 {
		t.Fatal("suspended stage labeled nothing")
	}
	if byMethod["Suspended"] <= byMethod["Human Labeling"] {
		t.Fatalf("suspended (%d) should dominate manual (%d)",
			byMethod["Suspended"], byMethod["Human Labeling"])
	}
	if byMethod["Suspended"] <= byMethod["Clustering"]/2 {
		t.Fatalf("suspended (%d) unexpectedly small vs clustering (%d)",
			byMethod["Suspended"], byMethod["Clustering"])
	}
	if byMethod["Clustering"] == 0 {
		t.Fatal("clustering stage labeled nothing")
	}
	if byMethod["Rule Based"] == 0 {
		t.Fatal("rule stage labeled nothing")
	}
}

// labelQuality scores the ground-truth labels against the generative truth
// (not part of the paper's tables).
func labelQuality(r *Runner) (precision, recall float64, err error) {
	gt, err := r.RunGroundTruth()
	if err != nil {
		return 0, 0, err
	}
	var tp, fp, fn int
	for _, tw := range gt.Corpus.Tweets {
		labeled := gt.Labels.IsSpam(tw.ID)
		switch {
		case labeled && tw.Spam:
			tp++
		case labeled && !tw.Spam:
			fp++
		case !labeled && tw.Spam:
			fn++
		}
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	return precision, recall, nil
}

func TestGroundTruthLabelQuality(t *testing.T) {
	r := sharedRunner(t)
	precision, recall, err := labelQuality(r)
	if err != nil {
		t.Fatal(err)
	}
	if precision < 0.8 {
		t.Fatalf("ground-truth precision %v too low", precision)
	}
	if recall < 0.7 {
		t.Fatalf("ground-truth recall %v too low", recall)
	}
}

// Table IV shape: RF has the best precision; the tree ensembles (RF, EGB)
// beat the simple classifiers; RF's FPR is among the lowest.
func TestTableIVShape(t *testing.T) {
	r := sharedRunner(t)
	metrics, err := r.RunTableIV()
	if err != nil {
		t.Fatal(err)
	}
	rf := metrics[core.ClassifierRF]
	egb := metrics[core.ClassifierEGB]
	for _, name := range []core.ClassifierName{core.ClassifierDT, core.ClassifierKNN, core.ClassifierSVM} {
		m := metrics[name]
		if rf.Precision < m.Precision {
			t.Errorf("RF precision %v < %s precision %v", rf.Precision, name, m.Precision)
		}
		if egb.F1 < m.F1 {
			t.Errorf("EGB F1 %v < %s F1 %v", egb.F1, name, m.F1)
		}
		// RF's false positive rate is the paper's headline (0.002);
		// allow a small-margin tie with conservative classifiers.
		if rf.FPR > m.FPR+0.01 {
			t.Errorf("RF FPR %v much worse than %s FPR %v", rf.FPR, name, m.FPR)
		}
	}
	if rf.Accuracy < 0.9 {
		t.Errorf("RF accuracy %v below 0.9", rf.Accuracy)
	}
}

// Tables V/VI shape: the audience/list attributes dominate; the
// lists-per-day sample values appear near the top of the PGE ranking.
func TestTableVAndVIShape(t *testing.T) {
	r := sharedRunner(t)
	main, err := r.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	sums := core.SummarizeByAttribute(main.Monitor.Groups())
	if len(sums) < 10 {
		t.Fatalf("only %d attribute summaries", len(sums))
	}
	// Audience/list attributes must populate the head of Table V; the
	// exact rank order is Poisson-noisy at the test scale, so check
	// membership within the top 12 of 17 rows.
	topSet := make(map[socialnet.Attribute]bool)
	limit := 12
	if limit > len(sums) {
		limit = len(sums)
	}
	for _, s := range sums[:limit] {
		topSet[s.Attr] = true
	}
	for _, attr := range []socialnet.Attribute{
		socialnet.AttrListsPerDay, socialnet.AttrFollowers,
		socialnet.AttrTotalFriendsFollowers,
	} {
		if !topSet[attr] {
			t.Errorf("attribute %v missing from Table V top %d", attr, limit)
		}
	}

	// Table VI: among the top-10 PGE sample values, high-end audience or
	// list-activity values dominate; the paper's winner (lists/day ≥ ~1
	// or a large audience attribute) is present near the top.
	rows := main.PGERows
	if len(rows) < 10 {
		t.Fatalf("only %d PGE rows", len(rows))
	}
	foundActivity := false
	for _, row := range rows[:10] {
		switch row.Selector.Attr {
		case socialnet.AttrListsPerDay, socialnet.AttrLists,
			socialnet.AttrTotalFriendsFollowers, socialnet.AttrFollowers,
			socialnet.AttrFriends:
			if row.Selector.Value >= 0.5 {
				foundActivity = true
			}
		}
	}
	if !foundActivity {
		t.Fatalf("no audience/list sample value in PGE top 10: %+v", rows[:10])
	}
	// PGE ordering must be non-increasing.
	for i := 1; i < len(rows); i++ {
		if rows[i].PGE > rows[i-1].PGE {
			t.Fatal("PGE rows not sorted")
		}
	}
}

// Figure 2 shape: the overwhelming majority of detected spammers post one
// spam; almost none post more than ten.
func TestFigure2Shape(t *testing.T) {
	r := sharedRunner(t)
	main, err := r.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	total := len(main.SpamsPerSpammer)
	if total < 100 {
		t.Fatalf("only %d detected spammers", total)
	}
	ones, over10 := 0, 0
	for _, n := range main.SpamsPerSpammer {
		if n == 1 {
			ones++
		}
		if n > 10 {
			over10++
		}
	}
	if frac := float64(ones) / float64(total); frac < 0.75 {
		t.Fatalf("single-spam fraction %v, want >= 0.75 (paper: >0.9 at full scale)", frac)
	}
	if frac := float64(over10) / float64(total); frac > 0.01 {
		t.Fatalf(">10-spam fraction %v, want < 0.01", frac)
	}
}

// Figure 3 shape: for the audience attributes, spam captures rise with the
// sample value (paper Figs. 3(a)-(d)).
func TestFigure3Monotonicity(t *testing.T) {
	r := sharedRunner(t)
	series, err := r.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 11 {
		t.Fatalf("Figure 3 has %d panels, want 11", len(series))
	}
	// Compare pooled low-half vs high-half spammer counts for the
	// audience attributes; high half must dominate.
	byTitle := make(map[string][]float64)
	for _, s := range series {
		var spammers []float64
		for _, p := range s.Points {
			spammers = append(spammers, p.Y[2])
		}
		byTitle[s.Title] = spammers
	}
	for title, spammers := range byTitle {
		if !strings.Contains(title, "followers count") &&
			!strings.Contains(title, "total friends") {
			continue
		}
		lo, hi := 0.0, 0.0
		half := len(spammers) / 2
		for i, v := range spammers {
			if i < half {
				lo += v
			} else {
				hi += v
			}
		}
		if hi <= lo {
			t.Errorf("%s: high sample values captured %v spammers vs %v low", title, hi, lo)
		}
	}
}

// Figure 4/5 shape: every category/state appears and the counts are
// positive for the major ones.
func TestFigure4And5Structure(t *testing.T) {
	r := sharedRunner(t)
	f4, err := r.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(f4.Points) != 9 {
		t.Fatalf("Figure 4 has %d categories, want 9", len(f4.Points))
	}
	f5, err := r.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(f5.Points) != 4 {
		t.Fatalf("Figure 5 has %d states, want 4", len(f5.Points))
	}
	// Trending-up must attract more spam than no-trending (paper Fig. 5).
	var up, none float64
	for _, p := range f5.Points {
		switch p.X {
		case "trending up":
			up = p.Y[2]
		case "no trending":
			none = p.Y[2]
		}
	}
	if up <= none {
		t.Errorf("trending-up spammers %v <= no-trending %v", up, none)
	}
}

// Figure 6 / Table VII shape: the advanced pseudo-honeypot beats the random
// baseline by a wide margin and the traditional honeypot by a wider one.
func TestFigure6AndTableVIIShape(t *testing.T) {
	r := sharedRunner(t)
	adv, err := r.RunAdvanced()
	if err != nil {
		t.Fatal(err)
	}
	if adv.AdvancedSpammers == 0 {
		t.Fatal("advanced system captured nothing")
	}
	if adv.AdvancedSpammers <= 2*adv.RandomSpammers {
		t.Fatalf("advanced %d vs random %d: want > 2x (paper: 9.37x at full scale)",
			adv.AdvancedSpammers, adv.RandomSpammers)
	}
	// Cumulative curves must be non-decreasing and advanced must end on top.
	for i := 1; i < len(adv.AdvancedByHour); i++ {
		if adv.AdvancedByHour[i] < adv.AdvancedByHour[i-1] ||
			adv.RandomByHour[i] < adv.RandomByHour[i-1] {
			t.Fatal("cumulative capture curves decreased")
		}
	}
	if adv.AdvancedPGE <= adv.HoneypotPGE {
		t.Fatalf("advanced PGE %v <= honeypot PGE %v", adv.AdvancedPGE, adv.HoneypotPGE)
	}
	// The paper's ">= 19x faster than honeypots" claim, measured against
	// the traditional honeypot deployed in the same world.
	if adv.HoneypotPGE > 0 && adv.AdvancedPGE/adv.HoneypotPGE < 19 {
		t.Fatalf("advanced/honeypot PGE ratio %v < 19", adv.AdvancedPGE/adv.HoneypotPGE)
	}
}

func TestTableRendersComplete(t *testing.T) {
	r := sharedRunner(t)
	renders := []func() (string, error){
		func() (string, error) { tb, err := r.TableIII(); return safeRender(tb, err) },
		func() (string, error) { tb, err := r.TableIV(); return safeRender(tb, err) },
		func() (string, error) { tb, err := r.TableV(); return safeRender(tb, err) },
		func() (string, error) { tb, err := r.TableVI(); return safeRender(tb, err) },
		func() (string, error) { tb, err := r.TableVII(); return safeRender(tb, err) },
	}
	for i, render := range renders {
		out, err := render()
		if err != nil {
			t.Fatalf("table %d: %v", i+3, err)
		}
		if len(out) < 50 {
			t.Fatalf("table %d render suspiciously short", i+3)
		}
	}
}

type renderer interface{ Render() string }

func safeRender(r renderer, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

func TestRandomSpecsSumToBudget(t *testing.T) {
	specs := randomSpecs(100, rand.New(rand.NewSource(5)))
	if got := core.TotalNodes(specs); got != 100 {
		t.Fatalf("random specs total %d, want 100", got)
	}
	// Selectors must come from the standard pool and be deduplicated.
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		key := s.Selector.String()
		if seen[key] {
			t.Fatalf("duplicate selector %q in random specs", key)
		}
		seen[key] = true
	}
}

// The deployed detector must lean on the behavioural signals the paper
// emphasizes — mention time above all.
func TestTopFeaturesIncludeMentionTime(t *testing.T) {
	r := sharedRunner(t)
	tbl, err := r.TopFeatures(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 10 {
		t.Fatalf("top features rows = %d", len(tbl.Rows))
	}
	found := false
	for _, row := range tbl.Rows {
		if row[1] == "mention time" {
			found = true
		}
	}
	if !found {
		t.Fatalf("mention time missing from top-10 features: %v", tbl.Rows)
	}
}
