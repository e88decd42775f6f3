package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/honeypot"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// Runner executes the paper's evaluation phases lazily and caches their
// results, since several tables and figures share a phase (DESIGN.md §4).
// A Runner is not safe for concurrent use.
type Runner struct {
	scale Scale

	gt      *GroundTruth
	tableIV map[core.ClassifierName]ml.Metrics
	main    *MainRun
	adv     *AdvancedRun
}

// NewRunner creates a runner at the given scale.
func NewRunner(scale Scale) *Runner {
	return &Runner{scale: scale}
}

// GroundTruth is the labeling phase's output (paper §V-C): the corpus a
// small random-attribute pseudo-honeypot network collected, its pipeline
// labels, and the training dataset built from both.
type GroundTruth struct {
	Captures []*core.Capture
	Corpus   *label.Corpus
	Labels   *label.Result
	Dataset  *ml.Dataset
	// ManualChecks counts simulated human verifications.
	ManualChecks int
}

// MainRun is the long collection phase's output (paper §V-D): the full
// standard network monitored for the main duration, classified by the
// RF detector.
type MainRun struct {
	Monitor  *core.Monitor
	Detector *core.Detector
	Verdicts []bool
	PGERows  []core.PGERow
	// SpamsPerSpammer maps each detected spammer to their spam count
	// (Figure 2's distribution).
	SpamsPerSpammer map[socialnet.AccountID]int
	// Spams and Spammers are the classified totals.
	Spams    int
	Spammers int
	Tweets   int
	Users    int
}

// AdvancedRun compares the refined top-PGE system against the random
// baseline and a traditional honeypot in one world (paper §V-E).
type AdvancedRun struct {
	// Cumulative unique spammers captured by hour.
	AdvancedByHour []int
	RandomByHour   []int

	AdvancedSpams    int
	AdvancedSpammers int
	RandomSpammers   int

	AdvancedNodes int
	Hours         int

	AdvancedPGE float64
	RandomPGE   float64
	// HoneypotPGE is the simulated traditional honeypot's efficiency in
	// the same world over the same hours.
	HoneypotPGE      float64
	HoneypotSpammers int
}

// RunGroundTruth executes (or returns the cached) labeling phase.
func (r *Runner) RunGroundTruth() (*GroundTruth, error) {
	if r.gt != nil {
		return r.gt, nil
	}
	worldCfg := r.scale.World
	worldCfg.Seed += 10
	w, err := socialnet.NewWorld(worldCfg)
	if err != nil {
		return nil, fmt.Errorf("ground-truth world: %w", err)
	}
	e := socialnet.NewEngine(w)

	rng := rand.New(rand.NewSource(worldCfg.Seed + 1))
	m := core.NewMonitor(core.MonitorConfig{
		Specs:      randomSpecs(r.scale.GroundTruthNodes, rng),
		ActiveOnly: true,
		Seed:       worldCfg.Seed + 2,
	}, &core.LocalScreener{World: w, Rng: rng})
	detach := core.Attach(m, e)
	e.RunHours(r.scale.GroundTruthHours)
	detach()

	captures := m.Captures()
	tweets := make([]*socialnet.Tweet, len(captures))
	for i, c := range captures {
		tweets[i] = c.Tweet
	}
	// Labeling happens months after collection; by then the platform has
	// suspended most of the spam accounts involved.
	w.AdvanceSuspensions(r.scale.SuspensionLagHours,
		rand.New(rand.NewSource(worldCfg.Seed+4)))
	corpus := label.NewCorpus(tweets, w.Account)
	authors := make([]*socialnet.Account, len(tweets))
	for i, t := range tweets {
		authors[i] = corpus.Users[t.AuthorID]
	}
	ls := label.NewStore(label.DefaultConfig())
	ls.AddBatch(tweets, authors, authors)
	labels := ls.Snapshot(label.NewNoisyOracle(w, 0.01, worldCfg.Seed+3))

	ds, err := core.BuildDataset(captures, labels)
	if err != nil {
		return nil, fmt.Errorf("ground-truth dataset: %w", err)
	}
	r.gt = &GroundTruth{
		Captures:     captures,
		Corpus:       corpus,
		Labels:       labels,
		Dataset:      ds,
		ManualChecks: labels.ManualChecks,
	}
	return r.gt, nil
}

// RunTableIV executes (or returns the cached) classifier comparison:
// 10-fold cross-validation of the five families on the ground-truth
// dataset (paper Table IV).
func (r *Runner) RunTableIV() (map[core.ClassifierName]ml.Metrics, error) {
	if r.tableIV != nil {
		return r.tableIV, nil
	}
	gt, err := r.RunGroundTruth()
	if err != nil {
		return nil, err
	}
	ds := gt.Dataset
	if max := r.scale.TableIVMaxSamples; max > 0 && ds.Len() > max {
		idx := rand.New(rand.NewSource(1)).Perm(ds.Len())[:max]
		ds = ds.Subset(idx)
	}
	// The five families are independent cross-validation problems; fan
	// them out over the worker pool. Each family's folds also run
	// concurrently (ml.CrossValidate) and the RF's trees train in
	// parallel below that, all deterministically seeded, so the table is
	// bit-identical at any worker count.
	results := make([]ml.Metrics, len(core.ClassifierNames))
	err = parallel.ForEachErr(len(core.ClassifierNames), 0, func(i int) error {
		name := core.ClassifierNames[i]
		// CV refits each family ten times over, each fold with the
		// paper-config classifier the deployed detector uses.
		factory := func() ml.Classifier {
			clf, ferr := core.NewClassifier(name, 7)
			if ferr != nil {
				panic(ferr) // unreachable: name is from ClassifierNames
			}
			return clf
		}
		metrics, cvErr := ml.CrossValidate(ds, 10, factory, 11)
		if cvErr != nil {
			return fmt.Errorf("cross-validate %s: %w", name, cvErr)
		}
		results[i] = metrics
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[core.ClassifierName]ml.Metrics, len(core.ClassifierNames))
	for i, name := range core.ClassifierNames {
		out[name] = results[i]
	}
	r.tableIV = out
	return out, nil
}

// RunMain executes (or returns the cached) long collection phase.
func (r *Runner) RunMain() (*MainRun, error) {
	if r.main != nil {
		return r.main, nil
	}
	gt, err := r.RunGroundTruth()
	if err != nil {
		return nil, err
	}

	worldCfg := r.scale.World
	worldCfg.Seed += 20
	w, err := socialnet.NewWorld(worldCfg)
	if err != nil {
		return nil, fmt.Errorf("main world: %w", err)
	}
	e := socialnet.NewEngine(w)
	rng := rand.New(rand.NewSource(worldCfg.Seed + 1))
	m := core.NewMonitor(core.MonitorConfig{
		Specs:      core.StandardSpecs(r.scale.NodesPerValue),
		ActiveOnly: true,
		Seed:       worldCfg.Seed + 2,
	}, &core.LocalScreener{World: w, Rng: rng})
	detach := core.Attach(m, e)
	e.RunHours(r.scale.MainHours)
	detach()

	clf, err := core.NewClassifier(core.ClassifierRF, 1)
	if err != nil {
		return nil, err
	}
	det := core.NewDetector(clf)
	if err := det.Train(gt.Captures, gt.Labels); err != nil {
		return nil, fmt.Errorf("train detector: %w", err)
	}
	captures := m.Captures()
	verdicts := det.Classify(captures)
	m.AttributeSpam(verdicts)

	run := &MainRun{
		Monitor:         m,
		Detector:        det,
		Verdicts:        verdicts,
		PGERows:         core.ComputePGE(m.Groups()),
		SpamsPerSpammer: make(map[socialnet.AccountID]int),
	}
	users := make(map[socialnet.AccountID]struct{})
	for i, c := range captures {
		run.Tweets++
		users[c.Tweet.AuthorID] = struct{}{}
		if verdicts[i] {
			run.Spams++
			run.SpamsPerSpammer[c.Tweet.AuthorID]++
		}
	}
	run.Users = len(users)
	run.Spammers = len(run.SpamsPerSpammer)
	r.main = run
	return run, nil
}

// RunAdvanced executes (or returns the cached) advanced-system comparison:
// the top-PGE network, the random baseline, and a traditional honeypot
// deployed together in a fresh world.
func (r *Runner) RunAdvanced() (*AdvancedRun, error) {
	if r.adv != nil {
		return r.adv, nil
	}
	main, err := r.RunMain()
	if err != nil {
		return nil, err
	}

	worldCfg := r.scale.World
	worldCfg.Seed += 30
	w, err := socialnet.NewWorld(worldCfg)
	if err != nil {
		return nil, fmt.Errorf("advanced world: %w", err)
	}
	e := socialnet.NewEngine(w)

	advSpecs := core.AdvancedSpecs(main.PGERows,
		r.scale.AdvancedSelectors, r.scale.AdvancedNodesEach)
	totalNodes := core.TotalNodes(advSpecs)

	advMonitor := core.NewMonitor(core.MonitorConfig{
		Specs:      advSpecs,
		ActiveOnly: true,
		Seed:       worldCfg.Seed + 2,
	}, &core.LocalScreener{World: w, Rng: rand.New(rand.NewSource(worldCfg.Seed + 3))})
	randMonitor := core.NewMonitor(core.MonitorConfig{
		Specs: core.RandomSpec(totalNodes),
		Seed:  worldCfg.Seed + 4,
	}, &core.LocalScreener{World: w, Rng: rand.New(rand.NewSource(worldCfg.Seed + 5))})

	hp := honeypot.Deploy(w, honeypot.Config{
		Nodes:   totalNodes,
		Friends: 1000,
		Seed:    worldCfg.Seed + 6,
	}, e.Now())
	e.Subscribe(hp.OnTweet)
	e.OnHourStart(func(int, time.Time) { hp.AddHours(1) })

	detachAdv := core.Attach(advMonitor, e)
	detachRand := core.Attach(randMonitor, e)

	hours := r.scale.AdvancedHours
	run := &AdvancedRun{
		AdvancedNodes: totalNodes,
		Hours:         hours,
	}
	// Classify incrementally each hour to build the Figure 6 series.
	advSeen := make(map[socialnet.AccountID]struct{})
	randSeen := make(map[socialnet.AccountID]struct{})
	advDone, randDone := 0, 0
	for h := 0; h < hours; h++ {
		e.RunHours(1)
		advDone = r.tally(main.Detector, advMonitor, advSeen, advDone, &run.AdvancedSpams)
		randDone = r.tally(main.Detector, randMonitor, randSeen, randDone, nil)
		run.AdvancedByHour = append(run.AdvancedByHour, len(advSeen))
		run.RandomByHour = append(run.RandomByHour, len(randSeen))
	}
	detachAdv()
	detachRand()

	run.AdvancedSpammers = len(advSeen)
	run.RandomSpammers = len(randSeen)
	nodeHours := float64(totalNodes * hours)
	if nodeHours > 0 {
		run.AdvancedPGE = float64(run.AdvancedSpammers) / nodeHours
		run.RandomPGE = float64(run.RandomSpammers) / nodeHours
	}
	run.HoneypotPGE = hp.PGE()
	_, _, hpSpammers, _ := hp.Stats()
	run.HoneypotSpammers = hpSpammers
	r.adv = run
	return run, nil
}

// tally classifies the monitor's captures added since index done and folds
// garnered spammers into seen. Each hour's fresh captures go through the
// detector's chunked parallel batch path (Detector.Classify), the same one
// the main run uses. Only mention-received spam counts — the Figure 6
// comparison measures attraction, so a harnessed account's own spam
// (Category (1)) garners nothing. It returns the new done index.
func (r *Runner) tally(det *core.Detector, m *core.Monitor, seen map[socialnet.AccountID]struct{}, done int, spams *int) int {
	captures := m.Captures()
	fresh := captures[done:]
	verdicts := det.Classify(fresh)
	for i, c := range fresh {
		if verdicts[i] && c.ReceiverSnapshot() != nil {
			seen[c.Tweet.AuthorID] = struct{}{}
			if spams != nil {
				*spams++
			}
		}
	}
	return len(captures)
}

// randomSpecs draws n single-node selectors uniformly from the standard
// selector pool (the paper's "attributes randomly selected from Table I").
func randomSpecs(n int, rng *rand.Rand) []core.SelectorSpec {
	pool := core.StandardSpecs(1)
	counts := make(map[int]int)
	for i := 0; i < n; i++ {
		counts[rng.Intn(len(pool))]++
	}
	// Deterministic spec order: iterate the pool, not the map.
	var specs []core.SelectorSpec
	for i := range pool {
		if c := counts[i]; c > 0 {
			specs = append(specs, core.SelectorSpec{
				Selector: pool[i].Selector,
				Nodes:    c,
			})
		}
	}
	return specs
}
