// Command twitterd serves a simulated Twitter-like social network over the
// emulated developer APIs: statuses/filter streaming (NDJSON), user
// show/lookup/search, trends, and simulation control endpoints.
//
// Usage:
//
//	twitterd [-addr :8331] [-accounts 6000] [-organic 1200] [-seed 1]
//	         [-tick 2s] [-oracle] [-store-dir DIR]
//	         [-trace-buffer 256] [-slow-span 250ms] [-log-level info]
//	         [-pprof]
//
// With -tick set, one simulated hour elapses per tick of wall time;
// without it, advance time explicitly via POST /sim/advance.json?hours=N.
//
// With -store-dir, every time advance is journaled to a durable WAL in
// that directory; a restarted twitterd replays the journal and
// fast-forwards the (deterministically regenerated) world to the hour it
// had reached, so clients resume against the same simulated timeline. The
// directory is locked against a second concurrent daemon and bound to the
// world parameters (seed, accounts, organic rate) — reopening it under
// different ones fails instead of diverging.
//
// Observability: GET /metrics (Prometheus text), GET /healthz, and — when
// -trace-buffer is positive — GET /debug/traces; -pprof additionally
// mounts net/http/pprof. -slow-span and -log-level control the structured
// event log on stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/obs"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/shard"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/store"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/twitterapi"
)

// logger is the process logger, reconfigured from -log-level in run.
var logger = trace.NewLogger(os.Stderr, trace.LevelInfo)

func main() {
	// Proc-mode shard coordinators spawn workers by re-executing the
	// current binary, so every daemon in this repo installs the worker
	// hook first thing in main — a process carrying the worker marker
	// serves the shard extract RPC instead of booting the daemon.
	shard.MaybeWorker()
	if err := run(); err != nil {
		logger.Error("run failed", "err", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8331", "listen address")
		accounts    = flag.Int("accounts", 6000, "number of simulated accounts")
		organic     = flag.Int("organic", 1200, "organic tweets per simulated hour")
		seed        = flag.Int64("seed", 1, "world seed")
		tick        = flag.Duration("tick", 0, "wall-clock duration of one simulated hour (0 = manual advance)")
		oracle      = flag.Bool("oracle", false, "expose ground-truth spam fields on streams (evaluation only)")
		storeDir    = flag.String("store-dir", "", "durable sim-time journal: a restarted daemon fast-forwards to the hour it had reached")
		traceBuffer = flag.Int("trace-buffer", 256, "pipeline traces to retain for /debug/traces (0 disables tracing)")
		slowSpan    = flag.Duration("slow-span", 250*time.Millisecond, "log a warn event for spans at least this long (0 disables)")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
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

	cfg := socialnet.DefaultConfig()
	cfg.Seed = *seed
	cfg.NumAccounts = *accounts
	cfg.OrganicTweetsPerHour = *organic
	world, err := socialnet.NewWorld(cfg)
	if err != nil {
		return err
	}
	engine := socialnet.NewEngine(world)

	// Runtime telemetry (ph_runtime_* heap/GC/goroutine gauges) samples
	// into the default registry for the daemon's lifetime.
	collector := obs.NewCollector(metrics.Default())
	stopCollector := collector.Start(0)
	defer stopCollector()

	opts := []twitterapi.ServerOption{twitterapi.WithSeed(*seed)}
	if *storeDir != "" {
		st, journal, err := openJournal(*storeDir, *seed, *accounts, *organic, engine)
		if err != nil {
			return err
		}
		defer func() { _ = st.Close() }()
		opts = append(opts, journal, twitterapi.WithHealth(st.HealthExtra()))
	}
	if *oracle {
		opts = append(opts, twitterapi.WithOracle())
	}
	if tracer.Enabled() {
		opts = append(opts, twitterapi.WithTracer(tracer))
	}
	if *pprofOn {
		opts = append(opts, twitterapi.WithPprof())
	}
	api := twitterapi.NewServer(engine, opts...)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *tick > 0 {
		go func() {
			ticker := time.NewTicker(*tick)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					api.Advance(1)
				}
			}
		}()
	}

	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()

	logger.Info("twitterd listening",
		"addr", *addr, "accounts", world.NumAccounts(), "organic_per_hour", *organic,
		"oracle", *oracle, "tracing", tracer.Enabled(), "pprof", *pprofOn)
	if *tick > 0 {
		logger.Info("auto-advancing simulated time", "hour_every", *tick)
	} else {
		logger.Info("manual time control", "endpoint", "POST /sim/advance.json?hours=N")
	}
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// openJournal opens the durable sim-time journal at dir and fast-forwards
// engine by the recovered hours — the world regenerates deterministically
// from its seed, so re-running the journaled hours reproduces the timeline
// a dead daemon had reached. The returned server option journals every
// future advance; the journal is bound (via the store's config
// fingerprint) to the world parameters, so reopening it under a different
// seed, account count, or organic rate fails instead of diverging.
func openJournal(dir string, seed int64, accounts, organic int, engine *socialnet.Engine) (*store.Store, twitterapi.ServerOption, error) {
	meta := fmt.Sprintf("twitterd|%d|%d|%d", seed, accounts, organic)
	st, rec, err := store.Open(store.Options{Dir: dir, Meta: meta})
	if err != nil {
		return nil, nil, err
	}
	if rec.SimHours > 0 {
		logger.Info("replaying sim-time journal", "hours", rec.SimHours, "dir", dir)
		engine.RunHours(rec.SimHours)
	}
	hook := twitterapi.WithAdvanceHook(func(hours int) {
		if err := st.AppendSimHours(hours); err != nil {
			logger.Error("sim-time journal append failed", "err", err)
		}
	})
	return st, hook, nil
}
