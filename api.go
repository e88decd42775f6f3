package pseudohoneypot

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/experiments"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/honeypot"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/pipeline"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/shard"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/source"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/store"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/twitterapi"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases form the stable public surface.
type (
	// Config parameterizes the simulated social world.
	Config = socialnet.Config
	// World is the simulated social network.
	World = socialnet.World
	// Tweet is one simulated status update.
	Tweet = socialnet.Tweet
	// Account is a simulated user profile.
	Account = socialnet.Account
	// AccountID identifies an account.
	AccountID = socialnet.AccountID
	// Selector is one pseudo-honeypot selection criterion.
	Selector = socialnet.Selector
	// SelectorSpec pairs a selector with its node budget.
	SelectorSpec = core.SelectorSpec
	// Monitor is the pseudo-honeypot monitoring engine.
	Monitor = core.Monitor
	// GroupStats aggregates one selector group's captures.
	GroupStats = core.GroupStats
	// Capture is one collected tweet with extraction context.
	Capture = core.Capture
	// PGERow is one garner-efficiency ranking entry.
	PGERow = core.PGERow
	// ClassifierName identifies a detector family (DT, kNN, SVM, EGB, RF).
	ClassifierName = core.ClassifierName
	// Metrics holds classification quality measures.
	Metrics = ml.Metrics
	// LabelResult is the ground-truth labeling output.
	LabelResult = label.Result
	// LabelMethod identifies which labeling stage produced a label.
	LabelMethod = label.Method
	// APIServer is the HTTP emulation of the Twitter developer APIs.
	APIServer = twitterapi.Server
	// APIClient consumes the emulated Twitter APIs.
	APIClient = twitterapi.Client
	// HoneypotDeployment is the traditional-honeypot baseline.
	HoneypotDeployment = honeypot.Deployment
	// ExperimentRunner regenerates the paper's tables and figures.
	ExperimentRunner = experiments.Runner
	// OnlineDetector retrains on a sliding window of labeled captures,
	// the paper's §IV-C answer to the Twitter spammer-drift problem.
	OnlineDetector = core.OnlineDetector
	// Tracer records per-capture pipeline traces (DESIGN.md §11).
	Tracer = trace.Tracer
	// TraceConfig parameterizes a Tracer.
	TraceConfig = trace.Config
	// MetricsRegistry aggregates the runtime's instrumentation; mount its
	// Handler at /metrics.
	MetricsRegistry = metrics.Registry
	// CaptureStore is the bounded ring retaining collected captures.
	CaptureStore = core.CaptureStore
	// LabelStore is the incremental labeling index behind the streaming
	// label stage.
	LabelStore = label.Store
	// IngestSource is one pluggable ingestion stream (DESIGN.md §17):
	// twitter (the in-process engine), reddit (the synthetic Reddit-like
	// firehose), replay (a recorded capture WAL), wire (a twitterd over
	// HTTP), or a mux of several.
	IngestSource = source.Source
)

// NewMetricsRegistry creates an isolated metrics registry; pass it through
// SnifferConfig.Metrics to keep a sniffer's instrumentation off the
// process-wide default registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewTracer creates a pipeline tracer; pass it through SnifferConfig.Tracer
// and mount its Handler at /debug/traces.
func NewTracer(cfg TraceConfig) *Tracer { return trace.New(cfg) }

// NewOnlineDetector creates a drift-aware detector of the named family
// with the given sliding-window size and retraining cadence.
func NewOnlineDetector(name ClassifierName, window, retrainEvery int, seed int64) (*OnlineDetector, error) {
	return core.NewOnlineDetector(name, window, retrainEvery, seed)
}

// Streaming pipeline defaults (see StreamConfig).
const (
	DefaultStreamBatchSize     = pipeline.DefaultFlushSize
	DefaultStreamFlushInterval = pipeline.DefaultFlushInterval
)

// Classifier family names (the paper's Table IV rows).
const (
	ClassifierDT  = core.ClassifierDT
	ClassifierKNN = core.ClassifierKNN
	ClassifierSVM = core.ClassifierSVM
	ClassifierEGB = core.ClassifierEGB
	ClassifierRF  = core.ClassifierRF
)

// DefaultConfig returns the scaled-down default world configuration.
func DefaultConfig() Config { return socialnet.DefaultConfig() }

// FullScaleConfig approximates the paper's deployment scale.
func FullScaleConfig() Config { return socialnet.FullScaleConfig() }

// StandardSpecs builds the paper's 2,400-node deployment plan scaled by
// nodesPerValue (10 reproduces the paper's budget exactly).
func StandardSpecs(nodesPerValue int) []SelectorSpec {
	return core.StandardSpecs(nodesPerValue)
}

// RandomSpec builds the non-pseudo-honeypot baseline plan: n random nodes.
func RandomSpec(n int) []SelectorSpec { return core.RandomSpec(n) }

// Simulation couples a generated world with its traffic engine.
type Simulation struct {
	world  *socialnet.World
	engine *socialnet.Engine
}

// NewSimulation generates a world from cfg and prepares its engine.
func NewSimulation(cfg Config) (*Simulation, error) {
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	return &Simulation{world: w, engine: socialnet.NewEngine(w)}, nil
}

// World returns the simulated network.
func (s *Simulation) World() *World { return s.world }

// Now returns the current virtual time.
func (s *Simulation) Now() time.Time { return s.engine.Now() }

// RunHours advances the simulation by n hours of traffic.
func (s *Simulation) RunHours(n int) { s.engine.RunHours(n) }

// Subscribe delivers every generated tweet to fn (read-only) and returns a
// cancel function.
func (s *Simulation) Subscribe(fn func(*Tweet)) (cancel func()) {
	return s.engine.Subscribe(fn)
}

// NewAPIServer exposes the simulation over the emulated Twitter API.
// Advance simulated hours through the server (or POST /sim/advance.json)
// rather than calling RunHours directly once handlers are attached.
func (s *Simulation) NewAPIServer(opts ...twitterapi.ServerOption) *APIServer {
	return twitterapi.NewServer(s.engine, opts...)
}

// StreamConfig parameterizes the sniffer's staged streaming runtime
// (DESIGN.md §12). Zero values take the pipeline package defaults.
type StreamConfig struct {
	// Enabled runs the sniffer on the stage graph: match → extract →
	// merge → label → detect, with micro-batching and backpressure.
	// Disabled (the default) keeps the synchronous batch path.
	Enabled bool
	// BatchSize is the micro-batch flush size bound (default 64).
	BatchSize int
	// FlushInterval bounds how long a partial batch waits for more
	// items (default 25ms).
	FlushInterval time.Duration
	// QueueDepth bounds each stage's input queue (default 4×BatchSize).
	// Push blocks while a queue is full, pausing the stream reader —
	// the backpressure contract.
	QueueDepth int
}

// SnifferConfig parameterizes a pseudo-honeypot sniffer.
type SnifferConfig struct {
	// Specs is the deployment plan; nil uses StandardSpecs(2).
	Specs []SelectorSpec
	// Classifier selects the detector family; empty uses RF, the
	// paper's choice.
	Classifier ClassifierName
	// Seed drives selection sampling and model training.
	Seed int64
	// ManualLabelErrorRate is the simulated human-annotator error rate
	// used during ground-truth labeling.
	ManualLabelErrorRate float64
	// NaiveSelection disables the pseudo-honeypot selection refinements
	// (Active-status screening and ratio hygiene). The paper's
	// "non pseudo-honeypot" baseline selects accounts naively.
	NaiveSelection bool
	// CaptureCap bounds how many captures the monitor retains; past the
	// cap the oldest is evicted (FIFO). Zero keeps everything.
	CaptureCap int
	// Stream selects and tunes the staged streaming runtime.
	Stream StreamConfig
	// Sources overrides the sniffer's ingestion: instead of subscribing
	// to the simulation's engine (the implicit twitter source), the
	// sniffer consumes the given sources — several are merged with
	// deterministic k-way ordering. Requires Stream.Enabled and works with
	// every Shards/ShardMode (not yet with Durability); a replay source
	// must be the sole entry. When Sources is set the sim argument to
	// NewSniffer may be nil (replayed runs have no live simulation).
	Sources []IngestSource
	// Shards partitions the honeypot node set across N shard workers by
	// consistent hashing on node id, each running its own extract stage,
	// with a coordinator merging the capture streams back into the
	// deterministic single-monitor order (DESIGN.md §15). Values above 1
	// require Stream.Enabled. Zero or 1 is the same graph with one shard.
	Shards int
	// ShardMode selects where a shard's extract step runs: "inproc" (the
	// default) on the shard's goroutine; "proc" in one worker subprocess
	// per shard, which the shard goroutine calls once per micro-batch over
	// loopback HTTP. Everything else — match, merge, label, detect, the
	// hour hook — is the same code in both.
	ShardMode string
	// Durability enables the WAL + checkpoint store so a crashed run can
	// be resumed without losing captures (requires Stream.Enabled).
	Durability DurabilityConfig
	// Online, when set with streaming enabled, receives every capture
	// and its stream-time provisional label from the detect stage,
	// retraining on its sliding window as the stream drifts.
	Online *OnlineDetector
	// Tracer records per-capture pipeline traces through every stage;
	// nil uses the process-wide trace.Default() (disabled by default).
	Tracer *Tracer
	// Metrics receives the sniffer's instrumentation; nil binds the
	// process-wide metrics.Default() registry.
	Metrics *MetricsRegistry
}

// Sniffer is the end-to-end pseudo-honeypot pipeline bound to a
// simulation: node selection with hourly rotation, mention monitoring,
// labeling, training, and classification.
type Sniffer struct {
	sim     *Simulation
	monitor *core.Monitor
	cfg     SnifferConfig
	detach  func()

	// Streaming only (nil on the batch path). src delivers the post stream:
	// the implicit twitter adapter unless cfg.Sources was set, in which case
	// explicit is true and lookups/oracles resolve through the source rather
	// than the simulation. fanout is the stage graph and tail the stateful
	// end it feeds. runErr latches the first failure of the run (a replay
	// adoption, a proc batch out of retries); it is delivery-goroutine
	// state, reported by RunHours and DetectAll.
	src      source.Source
	explicit bool
	srcIns   *sourceInstruments
	fanout   *shard.Fanout
	tail     *tail
	runErr   error

	// Durability (WAL + checkpoints), nil/zero when disabled. watermark
	// is the highest durably-accounted tweet id at startup: the re-run
	// simulation's tweets at or below it are already in the restored
	// state and are skipped by the subscribe callback. ckptSeq is the
	// sequence the newest checkpoint covers and sinceCkpt the WAL records
	// caused since — counted on the delivery goroutine as captures match
	// and rotations are journaled, the inputs of checkpointDue.
	store     *store.Store
	recovery  *store.Recovery
	watermark socialnet.TweetID
	ckptSeq   uint64
	sinceCkpt uint64

	closeOnce sync.Once
}

// Validate checks the configuration's cross-field constraints — every
// rule NewSniffer enforces, collected in one place: shard-mode naming,
// the streaming prerequisites of sharding, durability, and explicit
// sources, and the source-composition rules (a replay source rides
// alone). A zero SnifferConfig is valid.
func (cfg SnifferConfig) Validate() error {
	switch cfg.ShardMode {
	case "", "inproc", "proc":
	default:
		return fmt.Errorf("pseudohoneypot: unknown shard mode %q", cfg.ShardMode)
	}
	if (cfg.Shards > 1 || cfg.ShardMode == "proc") && !cfg.Stream.Enabled {
		return errors.New("pseudohoneypot: sharding requires the streaming pipeline (set Stream.Enabled)")
	}
	if cfg.Durability.enabled() && !cfg.Stream.Enabled {
		return errors.New("pseudohoneypot: durability requires the streaming pipeline (set Stream.Enabled)")
	}
	if cfg.Durability.RecordRotations && !cfg.Durability.enabled() {
		return errors.New("pseudohoneypot: RecordRotations requires a durable store (set Durability.Dir or Backend)")
	}
	if len(cfg.Sources) > 0 {
		if !cfg.Stream.Enabled {
			return errors.New("pseudohoneypot: explicit Sources require the streaming pipeline (set Stream.Enabled)")
		}
		if cfg.Durability.enabled() {
			return errors.New("pseudohoneypot: explicit Sources do not support durability: " +
				"the recovery watermark is a tweet id, which is not monotone under a mux's per-source id offsets " +
				"(record with the implicit twitter source, then replay)")
		}
		for _, src := range cfg.Sources {
			if src == nil {
				return errors.New("pseudohoneypot: nil entry in Sources")
			}
			if _, ok := src.(source.ReplayBacked); ok && len(cfg.Sources) > 1 {
				return errors.New("pseudohoneypot: a replay source must be the sole source")
			}
		}
	}
	return nil
}

// NewSniffer attaches a sniffer to the simulation. The node set rotates at
// every simulated hour automatically. sim may be nil only when
// cfg.Sources supplies the ingestion (a replayed run has no simulation).
func NewSniffer(sim *Simulation, cfg SnifferConfig) (*Sniffer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	explicit := len(cfg.Sources) > 0
	if sim == nil && !explicit {
		return nil, errors.New("pseudohoneypot: nil simulation")
	}
	if len(cfg.Specs) == 0 {
		cfg.Specs = core.StandardSpecs(2)
	}
	if cfg.Classifier == "" {
		cfg.Classifier = core.ClassifierRF
	}
	if cfg.ManualLabelErrorRate == 0 {
		cfg.ManualLabelErrorRate = 0.01
	}
	mcfg := core.MonitorConfig{
		Specs:      cfg.Specs,
		ActiveOnly: true,
		Seed:       cfg.Seed,
		CaptureCap: cfg.CaptureCap,
		Metrics:    cfg.Metrics,
		Tracer:     cfg.Tracer,
	}
	if cfg.NaiveSelection {
		mcfg.ActiveOnly = false
		mcfg.MaxRatio = -1
	}
	// Resolve the ingest source: caller-provided (muxed when several) or
	// the implicit twitter adapter over the simulation's engine. The
	// synchronous batch path needs no source at all.
	var src source.Source
	switch {
	case len(cfg.Sources) == 1:
		src = cfg.Sources[0]
	case len(cfg.Sources) > 1:
		src = source.NewMux(cfg.Sources...)
	case cfg.Stream.Enabled:
		src = source.NewTwitter(sim.world, sim.engine)
	}
	// The monitor's node-selection screener comes from the source when
	// the source owns the account population; replayed recordings never
	// rotate, so they run with the null screener.
	var scr core.Screener = source.NullScreener{}
	if !explicit {
		scr = &core.LocalScreener{
			World: sim.world,
			Rng:   rand.New(rand.NewSource(cfg.Seed + 1)),
		}
	} else if sc, ok := src.(source.Screening); ok {
		scr = sc.NewScreener(cfg.Seed + 1)
	}
	m := core.NewMonitor(mcfg, scr)
	s := &Sniffer{sim: sim, monitor: m, cfg: cfg, src: src, explicit: explicit}
	s.srcIns = newSourceInstruments(cfg.Metrics)
	if cfg.Durability.enabled() {
		if err := s.openDurable(); err != nil {
			return nil, err
		}
	}
	var err error
	if cfg.Stream.Enabled {
		err = s.attachStream()
	} else {
		s.detach = core.Attach(m, sim.engine)
	}
	if err == nil && s.store != nil {
		err = s.recoverDurable()
	}
	if err != nil {
		// Release whatever was acquired: stages, workers, the store's
		// directory lock.
		s.Close()
		return nil, err
	}
	return s, nil
}

// labelConfig is the labeling configuration shared by the batch oracle and
// the streaming store — identical by construction so the two paths agree.
func (s *Sniffer) labelConfig() label.Config {
	lcfg := label.DefaultConfig()
	lcfg.Tracer = s.cfg.Tracer
	return lcfg
}

// spawnWorkers starts the proc-mode worker fleet; a variable so a test can
// wrap the transport it returns.
var spawnWorkers = shard.SpawnWorkers

// attachStream wires the one streaming stage graph (DESIGN.md §12) and
// subscribes it to the ingest source:
//
//	source ─→ match ─→ [extract ×N] ─→ [merge] ─→ [label] ─→ [detect]
//	                                   └────────── tail ──────────┘
//
// The match step stays on the delivery goroutine — it mutates group stats
// that Rotate reads there — and routes each capture to its owning shard
// goroutine by consistent hashing on the receiver node; shards run
// stateless extraction and label precompute concurrently against profile
// snapshots frozen at match time, and the merge stage restores ingest
// order. ShardMode "proc" changes one thing: each shard goroutine hands its
// micro-batches to a worker subprocess (spawned by re-executing this binary
// — see shard.MaybeWorker) instead of extracting them itself.
func (s *Sniffer) attachStream() error {
	m, cfg, src := s.monitor, s.cfg, s.src
	t := &tail{
		monitor:        m,
		labels:         label.NewStore(s.labelConfig()),
		prep:           label.NewPrepper(s.labelConfig()),
		online:         cfg.Online,
		recordProfiles: cfg.Durability.RecordRotations,
	}
	if s.explicit {
		// Caller-provided sources resolve user ids through the source at
		// Snapshot time (mux namespacing, replay epilogue profiles); the
		// implicit twitter path keeps the store's default live pointers.
		t.labels.SetResolver(src.Lookup)
	}
	s.tail = t

	var workers shard.Transport
	if cfg.ShardMode == "proc" {
		var err error
		if workers, err = spawnWorkers(cfg.Shards); err != nil {
			return err
		}
	}
	s.fanout = shard.NewFanout(shard.FanoutConfig{
		Shards:  cfg.Shards,
		Workers: workers,
		Pipeline: pipeline.Config{
			FlushSize:     cfg.Stream.BatchSize,
			FlushInterval: cfg.Stream.FlushInterval,
			QueueCap:      cfg.Stream.QueueDepth,
			Metrics:       cfg.Metrics,
			Tracer:        cfg.Tracer,
			Source:        src.ID(),
		},
		Monitor:  m,
		Prepper:  t.prep,
		Complete: t.complete,
		Label:    t.label,
		Observe:  t.observe,
	})
	src.OnHourStart(s.rotateHour)
	s.detach = src.Subscribe(func(p source.Post) {
		if c := s.matchPost(p); c != nil {
			// Every capture becomes one WAL record once the tail
			// completes it.
			s.sinceCkpt++
			// Blocking push is the backpressure contract: a full extract
			// queue pauses the firehose right here.
			s.fanout.Ingest(c)
		}
	})
	return nil
}

// latch records the run's first error for RunHours and DetectAll.
func (s *Sniffer) latch(err error) {
	if s.runErr == nil {
		s.runErr = err
	}
}

// RunHours advances the simulation n hours through the sniffer —
// equivalent to Simulation.RunHours (or the explicit source's RunHours)
// plus the run's latched error, if any.
func (s *Sniffer) RunHours(n int) error {
	if s.src == nil {
		s.sim.RunHours(n)
		return nil
	}
	if err := s.src.RunHours(n); err != nil {
		return err
	}
	s.latch(s.fanout.Err())
	return s.runErr
}

// drainPipeline blocks until every post delivered so far has cleared the
// tail. The source must be quiescent: between RunHours calls, or inside an
// hour hook.
func (s *Sniffer) drainPipeline() {
	if s.fanout != nil {
		s.latch(s.fanout.Drain())
	}
}

// stopStages detaches from the post stream and stops the stage graph; work
// already ingested still lands in the tail (and the store's buffers), but
// nothing is flushed to the backend — what a crash leaves behind, and the
// first half of Close.
func (s *Sniffer) stopStages() {
	if s.detach != nil {
		s.detach()
	}
	if s.fanout != nil {
		_ = s.fanout.Close()
	}
}

// Close detaches the sniffer from the post stream, shuts the stage graph
// down, and closes the durable store. Close is idempotent.
func (s *Sniffer) Close() {
	s.closeOnce.Do(func() {
		s.stopStages()
		if s.explicit {
			// The implicit twitter adapter holds no resources; explicit
			// sources (reddit engines, replay logs, muxes) do.
			_ = s.src.Close()
		}
		if s.store != nil {
			// The tail has stopped appending: stamp the profile epilogue
			// (replay labels suspensions against end-of-run profiles), then
			// sync the WAL tail and release the lock.
			s.writeProfileEpilogue()
			_ = s.store.Close()
		}
	})
}

// Monitor exposes the underlying monitor (groups, captures, PGE inputs).
func (s *Sniffer) Monitor() *Monitor { return s.monitor }

// HealthExtra returns the /healthz hook for what this sniffer knows
// beyond liveness: the durable store's WAL section (last checkpoint seq,
// segment count, last fsync error) with -store-dir, and one row per
// proc-mode shard worker (ok, restarting or failed, restarts, last error)
// with -shard-mode proc. Nil when there is neither.
func (s *Sniffer) HealthExtra() func(*metrics.Health) {
	var wal func(*metrics.Health)
	if s.store != nil {
		wal = s.store.HealthExtra()
	}
	if s.cfg.ShardMode != "proc" {
		return wal
	}
	return func(h *metrics.Health) {
		if wal != nil {
			wal(h)
		}
		h.Shards = s.fanout.ShardHealth()
	}
}

// DetectionResult is the outcome of DetectAll.
type DetectionResult struct {
	// Captures is the number of collected tweets.
	Captures int
	// Spams is the number classified as spam.
	Spams int
	// Spammers is the number of distinct detected spam accounts.
	Spammers int
	// Labels is the ground-truth labeling used for training.
	Labels *LabelResult
	// PGE ranks every selector group by garner efficiency.
	PGE []PGERow
}

// DetectAll runs the paper's detection pipeline on everything collected so
// far: label the corpus (suspended accounts, clustering, rules, simulated
// manual checking), train the configured classifier, classify all
// captures, and attribute spam to selector groups. In streaming mode it
// first drains the stage graph — every streamed tweet is featurized,
// stored, and indexed before reporting — then snapshots the incremental
// label store instead of re-clustering from scratch.
func (s *Sniffer) DetectAll() (*DetectionResult, error) {
	s.drainPipeline()
	if s.runErr != nil {
		return nil, s.runErr
	}
	captures := s.monitor.Captures()
	if len(captures) == 0 {
		return nil, errors.New("pseudohoneypot: nothing captured yet")
	}
	var oracle label.Oracle
	if s.explicit {
		// Multi-source and replayed runs have no single live world; the
		// manual-check oracle resolves accounts through the source. The
		// flip hash depends only on ids and the seed, so a replay's
		// manual checks agree with its recording.
		oracle = label.NewNoisyLookupOracle(s.src.Lookup, s.cfg.ManualLabelErrorRate, s.cfg.Seed+2)
	} else {
		oracle = label.NewNoisyOracle(s.sim.world, s.cfg.ManualLabelErrorRate, s.cfg.Seed+2)
	}
	var labels *label.Result
	if s.tail != nil {
		labels = s.tail.labels.Snapshot(oracle)
		adoptLabelSpans(s.tail.labels.LastTrace(), captures)
	} else {
		tweets := make([]*socialnet.Tweet, len(captures))
		for i, c := range captures {
			tweets[i] = c.Tweet
		}
		corpus := label.NewCorpus(tweets, s.sim.world.Account)
		lp := label.NewPipeline(s.labelConfig())
		labels = lp.Run(corpus, oracle)
		adoptLabelSpans(lp.LastTrace(), captures)
	}

	clf, err := core.NewClassifier(s.cfg.Classifier, s.cfg.Seed)
	if err != nil {
		return nil, err
	}
	det := core.NewDetector(clf)
	det.SetTracer(s.cfg.Tracer)
	if err := det.Train(captures, labels); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	verdicts := det.Classify(captures)
	s.monitor.AttributeSpam(verdicts)

	res := &DetectionResult{
		Captures: len(captures),
		Labels:   labels,
		PGE:      core.ComputePGE(s.monitor.Groups()),
	}
	spammers := make(map[socialnet.AccountID]struct{})
	for i, v := range verdicts {
		if v {
			res.Spams++
			spammers[captures[i].Tweet.AuthorID] = struct{}{}
		}
	}
	res.Spammers = len(spammers)
	return res, nil
}

// adoptLabelSpans copies the labeling-pass spans of a batch label trace
// into every capture trace that fed the corpus, so each capture's journey
// shows the labeling work done on it. Adopted spans are marked with a
// batch attribute carrying the label trace's id.
func adoptLabelSpans(labelTrace *trace.Trace, captures []*core.Capture) {
	if labelTrace == nil {
		return
	}
	info := labelTrace.Snapshot()
	batch := trace.KV{Key: "batch", Value: info.ID}
	for _, c := range captures {
		if c.Trace == nil {
			continue
		}
		for _, sp := range info.Spans {
			if !strings.HasPrefix(sp.Stage, "label_") {
				continue // skip parallel_batch bookkeeping spans
			}
			c.Trace.AddSpan(sp.Stage, sp.Start, sp.End(), batch)
		}
	}
}

// NewExperiments creates a runner that regenerates the paper's tables and
// figures at the named scale ("small", "medium", or "full").
func NewExperiments(scaleName string) (*ExperimentRunner, error) {
	scale, ok := experiments.ScaleByName(scaleName)
	if !ok {
		return nil, fmt.Errorf("pseudohoneypot: unknown scale %q", scaleName)
	}
	return experiments.NewRunner(scale), nil
}
