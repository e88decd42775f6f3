// Command phsniffer runs the end-to-end pseudo-honeypot spam sniffer on an
// in-process simulated world: select nodes by attribute, monitor the
// mention stream with hourly rotation, label the collected corpus, train
// the random-forest detector, classify everything, and print the detection
// summary with the PGE ranking.
//
// Usage:
//
//	phsniffer [-hours 24] [-nodes-per-value 2] [-accounts 6000]
//	          [-classifier RF] [-seed 1] [-top 10]
//	          [-source twitter,reddit,replay:DIR,wire:URL]
//	          [-stream] [-batch-size 64] [-flush-interval 25ms]
//	          [-shards N] [-shard-mode inproc|proc]
//	          [-capture-cap 0]
//	          [-store-dir DIR] [-sync-every 1]
//	          [-metrics-addr :9331] [-export run.json]
//	          [-trace-buffer 256] [-slow-span 250ms] [-log-level info]
//	          [-pprof]
//
// With -source, the sniffer consumes the named ingest sources instead of
// the implicit simulated-Twitter firehose (DESIGN.md §17): "twitter" is
// the explicit form of the default, "reddit" adds the synthetic
// Reddit-like firehose (own account population, crossposting spam),
// "replay:DIR" re-feeds a capture WAL recorded by an earlier -store-dir
// run with rotation records, and "wire:URL" attaches to a running twitterd
// (without -tick) over HTTP — the paper's deployment shape: nodes are
// screened through the REST search endpoint and monitored through
// statuses/filter, one /sim/advance per hour, and the run labels, detects
// and ranks like any other. Several comma-separated sources are merged
// deterministically; a replay source must ride alone (at any -shards N, in
// either -shard-mode). -source implies -stream and is incompatible with
// -store-dir (the recovery watermark is a tweet id, not monotone across
// muxed sources).
//
// With -stream, the sniffer runs on the staged streaming pipeline
// (match → extract → merge → label → detect) with micro-batching tuned by
// -batch-size and -flush-interval; queue depth and backpressure appear
// under ph_pipeline_* on /metrics (stage extract on shard "1".."N",
// stages merge/label/detect on shard "coord"). Results are identical to
// the default batch mode at the same seed. -capture-cap bounds retained
// captures (FIFO eviction past the cap; 0 keeps everything) in either
// mode. -shards N runs N extract workers on the same graph (-stream alone
// is N = 1), as goroutines or, with -shard-mode proc, as goroutines that
// hand each micro-batch to a worker subprocess of their own; every
// combination with -store-dir or -source gives the same result.
//
// With -store-dir (implies -stream), every capture is written to a WAL in
// that directory, and at an hour boundary the pipeline state is
// checkpointed once the WAL tail has grown to the history the newest
// checkpoint covers (DESIGN.md §14), so a restart replays at most that
// history plus one hour. A restarted phsniffer pointed at the same
// directory recovers the durable state, fast-forwards past the hours
// already accounted for, and continues without double-counting — the
// final result is identical to a run that never stopped. The directory is
// locked against concurrent runs; -sync-every groups WAL fsyncs
// (group commit). Adding -record-rotations journals the hourly rotations
// and a final profile epilogue too, which is what -source replay:DIR
// needs to re-feed the recording later.
//
// With -metrics-addr, the process serves its live metrics registry at
// GET /metrics (Prometheus text), GET /healthz, and — when tracing is on —
// the per-capture pipeline traces at GET /debug/traces while the run
// executes; -pprof additionally mounts net/http/pprof. In -shard-mode proc
// that one registry covers the workers too: their heap and GC cycles
// arrive with every extract response (ph_shard_worker_heap_bytes,
// ph_shard_worker_gc_cycles), and /healthz lists each shard as ok,
// restarting or failed, answering 503 unless all are ok. Workers serve
// nothing but the extract RPC. With -export, the result tables plus a
// final metrics snapshot and the stage-latency trace summary are written
// as JSON.
//
// Tracing is sized by -trace-buffer (0 disables it entirely; the pipeline
// then pays one atomic load per capture). Spans at or above -slow-span log
// a warn event through the structured logger, whose verbosity is
// -log-level (debug, info, warn, error).
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"sync/atomic"
	"time"

	pseudohoneypot "github.com/pseudo-honeypot/pseudohoneypot"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/obs"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/report"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/shard"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// logger is the process logger, reconfigured from -log-level in run.
var logger = trace.NewLogger(os.Stderr, trace.LevelInfo)

func main() {
	// In -shard-mode proc the coordinator spawns shard workers by
	// re-executing this binary; a process carrying the worker marker
	// serves the extract RPC instead of running a sniffer.
	shard.MaybeWorker()
	if err := run(); err != nil {
		logger.Error("run failed", "err", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		hours       = flag.Int("hours", 24, "simulated hours to monitor")
		perValue    = flag.Int("nodes-per-value", 2, "pseudo-honeypot nodes per attribute sample value (paper: 10)")
		accounts    = flag.Int("accounts", 6000, "number of simulated accounts")
		organic     = flag.Int("organic", 1200, "organic tweets per simulated hour")
		classifier  = flag.String("classifier", "RF", "detector family: DT, kNN, SVM, EGB, RF")
		seed        = flag.Int64("seed", 1, "world and selection seed")
		top         = flag.Int("top", 10, "PGE rows to print")
		srcSpec     = flag.String("source", "", "comma-separated ingest sources: twitter, reddit, replay:DIR, wire:URL (a twitterd base URL) (empty = implicit twitter; implies -stream; works with any -shards/-shard-mode, not with -store-dir)")
		stream      = flag.Bool("stream", false, "run on the staged streaming pipeline instead of batch mode")
		batchSize   = flag.Int("batch-size", pseudohoneypot.DefaultStreamBatchSize, "streaming micro-batch flush size")
		flushEvery  = flag.Duration("flush-interval", pseudohoneypot.DefaultStreamFlushInterval, "streaming partial-batch age bound")
		shards      = flag.Int("shards", 0, "run N extract workers, partitioning the honeypot nodes among them (implies -stream; 0/1 = one worker, what -stream alone runs)")
		shardMode   = flag.String("shard-mode", "", "where a shard's extract step runs: inproc (its goroutine, default) or proc (a worker subprocess the shard calls per micro-batch over loopback HTTP)")
		captureCap  = flag.Int("capture-cap", 0, "max captures retained (FIFO eviction past the cap; 0 = unbounded)")
		storeDir    = flag.String("store-dir", "", "durable WAL+checkpoint directory; a restart against it resumes without double-counting (implies -stream; works with any -shards/-shard-mode, not with -source)")
		recordRot   = flag.Bool("record-rotations", false, "journal hourly rotations and a profile epilogue into the WAL so -source replay:DIR can re-feed it (requires -store-dir)")
		syncEvery   = flag.Int("sync-every", 1, "WAL appends per fsync (group commit; 1 = every capture durable immediately)")
		metricsOn   = flag.String("metrics-addr", "", "serve GET /metrics, /healthz and /debug/traces on this address during the run")
		export      = flag.String("export", "", "write result tables plus metrics snapshot and trace summary as JSON to this file")
		traceBuffer = flag.Int("trace-buffer", 256, "per-capture pipeline traces to retain (0 disables tracing)")
		slowSpan    = flag.Duration("slow-span", 250*time.Millisecond, "log a warn event for spans at least this long (0 disables)")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof on the metrics address")
	)
	flag.Parse()

	level, err := trace.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger.SetLevel(level)
	tracer := trace.Default()
	tracer.Configure(trace.Config{
		Enabled:  *traceBuffer > 0,
		Buffer:   *traceBuffer,
		SlowSpan: *slowSpan,
		Logger:   logger,
		Observer: metrics.Default().SpanObserver(),
	})

	// The sniffer's health extra (WAL and proc-mode shard sections) is
	// bound late — it only exists once the sniffer is built — through an
	// atomic pointer so the handler can already be serving.
	var snifferHealth atomic.Pointer[func(*metrics.Health)]
	healthExtra := func(h *metrics.Health) {
		if f := snifferHealth.Load(); f != nil {
			(*f)(h)
		}
	}
	if *metricsOn != "" {
		go serveMetrics(*metricsOn, tracer, *pprofOn, healthExtra)
	}

	srcNames := splitSources(*srcSpec)
	// Replay-, reddit- or wire-only ingestion owns its account population;
	// the local simulation exists only for the implicit or explicit twitter
	// source.
	needSim := len(srcNames) == 0
	for _, n := range srcNames {
		if n == "twitter" {
			needSim = true
		}
	}
	var sim *pseudohoneypot.Simulation
	if needSim {
		cfg := pseudohoneypot.DefaultConfig()
		cfg.Seed = *seed
		cfg.NumAccounts = *accounts
		cfg.OrganicTweetsPerHour = *organic
		var err error
		sim, err = pseudohoneypot.NewSimulation(cfg)
		if err != nil {
			return err
		}
	}
	sources, err := buildSources(srcNames, sim, *seed)
	if err != nil {
		return err
	}
	if len(sources) > 0 {
		*stream = true // explicit sources feed the stage graph
	}
	if *storeDir != "" {
		*stream = true // durability rides on the stage graph's ordering
	}
	if *shards > 1 || *shardMode == "proc" {
		*stream = true // sharding partitions the stream filter
	}
	sniffer, err := pseudohoneypot.NewSniffer(sim, pseudohoneypot.SnifferConfig{
		Specs:      pseudohoneypot.StandardSpecs(*perValue),
		Classifier: pseudohoneypot.ClassifierName(*classifier),
		Seed:       *seed,
		CaptureCap: *captureCap,
		Stream: pseudohoneypot.StreamConfig{
			Enabled:       *stream,
			BatchSize:     *batchSize,
			FlushInterval: *flushEvery,
		},
		Sources:   sources,
		Shards:    *shards,
		ShardMode: *shardMode,
		Durability: pseudohoneypot.DurabilityConfig{
			Dir:             *storeDir,
			SyncEvery:       *syncEvery,
			RecordRotations: *recordRot,
		},
	})
	if err != nil {
		return err
	}
	defer sniffer.Close()
	if f := sniffer.HealthExtra(); f != nil {
		snifferHealth.Store(&f)
	}
	collector := obs.NewCollector(metrics.Default())
	stopCollector := collector.Start(0)
	defer stopCollector()
	watchdog := obs.NewWatchdog(obs.WatchdogConfig{
		Metrics: metrics.Default(),
		Logger:  logger,
	})
	stopWatchdog := watchdog.Start()
	defer stopWatchdog()
	if rec := sniffer.Recovery(); rec != nil {
		logger.Info("durable store recovered",
			"dir", *storeDir, "checkpoint", rec.Checkpoint != nil,
			"replayed_records", len(rec.Records), "torn_segments", rec.Torn,
			"checkpoint_fallbacks", rec.Fallbacks)
	}

	specs := pseudohoneypot.StandardSpecs(*perValue)
	nodes := 0
	for _, s := range specs {
		nodes += s.Nodes
	}
	logger.Info("pseudo-honeypot network deployed",
		"nodes", nodes, "accounts", *accounts, "hours", *hours,
		"classifier", *classifier, "tracing", tracer.Enabled(),
		"streaming", *stream, "shards", *shards, "shard_mode", *shardMode,
		"capture_cap", *captureCap)

	if err := sniffer.RunHours(*hours); err != nil {
		return err
	}
	res, err := sniffer.DetectAll()
	if err != nil {
		return err
	}

	logger.Info("detection complete",
		"captures", res.Captures, "spams", res.Spams, "spammers", res.Spammers)
	logger.Info("ground truth labeled",
		"spams", res.Labels.TotalSpams(), "spammers", res.Labels.TotalSpammers(),
		"manual_checks", res.Labels.ManualChecks)

	tbl := &report.Table{
		Title:   "Top attributes by garner efficiency (PGE)",
		Headers: []string{"Rank", "Selector", "Spammers", "Node-hours", "PGE"},
	}
	for i, row := range res.PGE {
		if i >= *top {
			break
		}
		tbl.AddRow(i+1, row.Selector.String(), row.Spammers, row.NodeHours, row.PGE)
	}
	fmt.Print(tbl.Render())
	return writeExport(*export, []*report.Table{tbl})
}

// splitSources parses the -source flag into its trimmed, non-empty
// comma-separated entries.
func splitSources(spec string) []string {
	var names []string
	for _, part := range strings.Split(spec, ",") {
		if part = strings.TrimSpace(part); part != "" {
			names = append(names, part)
		}
	}
	return names
}

// buildSources constructs the ingest sources named by -source. sim is
// non-nil exactly when the list names twitter; reddit seeds a disjoint
// world off the run seed so the two populations never collide.
func buildSources(names []string, sim *pseudohoneypot.Simulation, seed int64) ([]pseudohoneypot.IngestSource, error) {
	sources := make([]pseudohoneypot.IngestSource, 0, len(names))
	for _, name := range names {
		switch {
		case name == "twitter":
			sources = append(sources, pseudohoneypot.NewTwitterSource(sim))
		case name == "reddit":
			src, err := pseudohoneypot.NewRedditSource(pseudohoneypot.RedditSourceConfig{Seed: seed + 2})
			if err != nil {
				return nil, err
			}
			sources = append(sources, src)
		case strings.HasPrefix(name, "replay:"):
			dir := strings.TrimPrefix(name, "replay:")
			if dir == "" {
				return nil, fmt.Errorf("replay source needs a directory: %q", name)
			}
			src, err := pseudohoneypot.NewReplaySource(dir)
			if err != nil {
				return nil, err
			}
			sources = append(sources, src)
		case strings.HasPrefix(name, "wire:"):
			src, err := pseudohoneypot.NewWireSource(strings.TrimPrefix(name, "wire:"))
			if err != nil {
				return nil, err
			}
			sources = append(sources, src)
		default:
			return nil, fmt.Errorf("unknown source %q (want twitter, reddit, replay:DIR, or wire:URL)", name)
		}
	}
	return sources, nil
}

// serveMetrics exposes the process metrics, health, the trace ring and
// (opt-in) pprof over HTTP for the duration of the run.
func serveMetrics(addr string, tracer *trace.Tracer, pprofOn bool, health func(*metrics.Health)) {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", metrics.Default().Handler())
	mux.Handle("GET /healthz", metrics.HealthHandlerFunc(health))
	mux.Handle("GET /debug/traces", tracer.Handler())
	mux.Handle("GET /debug/traces/{id}", tracer.Handler())
	if pprofOn {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if err := srv.ListenAndServe(); err != nil {
		logger.Error("metrics server stopped", "addr", addr, "err", err)
	}
}

// writeExport archives the result tables with a final snapshot of the
// process-default registry and the tracer's stage-latency summary. An
// empty path is a no-op.
func writeExport(path string, tables []*report.Table) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	export := report.NewExport(tables, metrics.Default()).
		WithTraces(trace.Default())
	if err := export.WriteJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
