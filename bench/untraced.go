package main

import (
	"fmt"
	"runtime"
	"time"

	ph "github.com/pseudo-honeypot/pseudohoneypot"
)

// snifferConfig is the workload's deployment through the public API.
func snifferConfig(spec runSpec, w workload) ph.SnifferConfig {
	cfg := ph.SnifferConfig{Specs: spec.specs(w), Seed: spec.Seed, Shards: w.Shards}
	cfg.Stream.Enabled = w.Stream
	if w.WAL {
		cfg.Durability = ph.DurabilityConfig{
			Dir:             spec.Dir,
			SyncEvery:       walSyncEvery,
			CheckpointEvery: walCheckpointEvery,
		}
	}
	return cfg
}

// runUntraced is the end-to-end run: the whole sniffer through the public
// root package only, with nothing of the benchmark's inside the timed calls
// except a firehose subscriber that counts tweets.
func runUntraced(spec runSpec, w workload) (*runResult, error) {
	r := &runResult{Workload: w.Name}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	start := time.Now()
	sim, err := ph.NewSimulation(spec.worldConfig())
	if err != nil {
		return nil, err
	}
	scfg := snifferConfig(spec, w)
	sniffer, err := ph.NewSniffer(sim, scfg)
	if err != nil {
		return nil, err
	}
	defer sniffer.Close()
	sim.Subscribe(func(*ph.Tweet) { r.Tweets++ })
	r.SetupS = time.Since(start).Seconds()

	collect := time.Now()
	r.HourS = make([]float64, spec.Hours)
	for h := range r.HourS {
		hour := time.Now()
		if err := sniffer.RunHours(1); err != nil {
			return nil, fmt.Errorf("hour %d: %w", h, err)
		}
		r.HourS[h] = time.Since(hour).Seconds()
	}
	r.CollectS = time.Since(collect).Seconds()

	detect := time.Now()
	res, err := sniffer.DetectAll()
	if err != nil {
		return nil, fmt.Errorf("detect: %w", err)
	}
	r.DetectS = time.Since(detect).Seconds()
	r.score(res, sniffer.Monitor().Captures())

	closing := time.Now()
	sniffer.Close()
	r.CloseS = time.Since(closing).Seconds()
	if _, err := r.resources(&before); err != nil {
		return nil, err
	}

	if w.WAL {
		r.Reopen, err = reopen(spec, scfg)
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// reopen opens the finished run's store again with a fresh simulation, as a
// restarted daemon would, and counts what came back. A store that refuses to
// open is a result (counted as failed operations), not an error of the run.
func reopen(spec runSpec, scfg ph.SnifferConfig) (*reopenResult, error) {
	sim, err := ph.NewSimulation(spec.worldConfig())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sniffer, err := ph.NewSniffer(sim, scfg)
	if err != nil {
		return &reopenResult{Err: err.Error()}, nil
	}
	defer sniffer.Close()
	return &reopenResult{
		RecoverS: time.Since(start).Seconds(),
		Restored: len(sniffer.Monitor().Captures()),
	}, nil
}
