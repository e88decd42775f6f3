package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/shard"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// The shard bench pins the tentpole claim of the sharded multi-monitor
// architecture: capture throughput scales with the shard count. It
// pre-generates one fixed capture workload from the simulation, then
// replays it through the in-process sharded fanout at 1, 2, 4, and 8
// shards, timing the per-shard stateless stage (feature extraction +
// label prep) plus the ordered merge — the path that partitioning
// parallelizes.
const (
	// shardBenchReps is the number of timed passes per shard count; the
	// median throughput is reported.
	shardBenchReps = 3
	// shardBenchReplay is how many times the capture workload is replayed
	// per timed pass, sizing passes well past timer noise.
	shardBenchReplay = 8
	// shardBenchHours/shardBenchNodes size the workload generation.
	shardBenchHours = 6
	shardBenchNodes = 250
)

// shardBenchCounts is the shard-count curve, matching the determinism
// test's pinned topologies.
var shardBenchCounts = []int{1, 2, 4, 8}

// shardReport is the schema of BENCH_shard.json.
type shardReport struct {
	Workload shardWorkloadMeta `json:"workload"`
	Shards   []shardEntry      `json:"shards"`
}

type shardWorkloadMeta struct {
	Captures int    `json:"captures"`
	Replay   int    `json:"replay"`
	Cores    int    `json:"cores"`
	Note     string `json:"note"`
}

type shardEntry struct {
	Shards         int     `json:"shards"`
	CapturesPerSec float64 `json:"captures_per_sec"`
	Speedup        float64 `json:"speedup_vs_1"`
}

// shardSpeedupFloor is the bench-shard-check gate on the fresh 4-shard
// speedup, tiered by the checking machine's core count: the ISSUE target
// (2.5x at 4 shards) applies on an 8-core runner; smaller machines cannot
// physically reach it, so the floor degrades to what their parallelism
// admits — down to a sanity floor (sharding must not halve throughput)
// on a single core.
func shardSpeedupFloor(cores int) float64 {
	switch {
	case cores >= 8:
		return 2.5
	case cores >= 4:
		return 1.6
	case cores >= 2:
		return 1.15
	default:
		return 0.5
	}
}

// genShardWorkload runs the simulation once and collects every capture
// the rotating monitor matches, exactly the items the sharded fanout
// partitions in production.
func genShardWorkload() ([]*core.Capture, *core.Monitor) {
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 2500
	cfg.OrganicTweetsPerHour = 1500
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		panic(err)
	}
	e := socialnet.NewEngine(w)
	m := core.NewMonitor(core.MonitorConfig{
		Specs:      core.RandomSpec(shardBenchNodes),
		ActiveOnly: true,
		Seed:       11,
	}, &core.LocalScreener{World: w, Rng: rand.New(rand.NewSource(12))})

	var caps []*core.Capture
	e.OnHourStart(func(_ int, now time.Time) { m.Rotate(now, time.Hour) })
	cancel := e.Subscribe(func(t *socialnet.Tweet) {
		if c := m.Match(t, w.Account); c != nil {
			caps = append(caps, c)
		}
	})
	defer cancel()
	e.RunHours(shardBenchHours)
	return caps, m
}

// shardPass replays the workload once through a fresh fanout at the given
// shard count and returns the wall time. A fresh fanout per pass keeps the
// per-shard first-appearance prep state identical across passes and shard
// counts.
func shardPass(caps []*core.Capture, m *core.Monitor, shards int) float64 {
	done := 0
	f := shard.NewFanout(shard.FanoutConfig{
		Shards:   shards,
		Monitor:  m,
		Prepper:  label.NewPrepper(label.DefaultConfig()),
		Complete: func(*shard.Item) { done++ },
		Label:    func([]shard.Item) {},
		Observe:  func(*shard.Item) {},
	})
	start := time.Now()
	for r := 0; r < shardBenchReplay; r++ {
		for _, c := range caps {
			f.Ingest(c)
		}
	}
	_ = f.Drain() // a Fanout's Drain and Close never fail
	secs := time.Since(start).Seconds()
	_ = f.Close()
	if want := len(caps) * shardBenchReplay; done != want {
		panic(fmt.Sprintf("shardbench: fanout completed %d of %d captures", done, want))
	}
	return secs
}

// shardMeasure reports the median captures/sec across timed passes.
func shardMeasure(caps []*core.Capture, m *core.Monitor, shards int) float64 {
	shardPass(caps, m, shards) // warm-up
	secs := make([]float64, shardBenchReps)
	for r := range secs {
		secs[r] = shardPass(caps, m, shards)
	}
	sort.Float64s(secs)
	return float64(len(caps)*shardBenchReplay) / secs[shardBenchReps/2]
}

// shardRun generates the workload and measures the shard-count curve.
func shardRun() (*shardReport, error) {
	caps, m := genShardWorkload()
	if len(caps) == 0 {
		return nil, fmt.Errorf("shardbench: workload generated no captures")
	}
	report := &shardReport{
		Workload: shardWorkloadMeta{
			Captures: len(caps),
			Replay:   shardBenchReplay,
			Cores:    runtime.NumCPU(),
			Note: fmt.Sprintf("fixed capture workload (%dh sim, %d nodes) replayed through the "+
				"in-process sharded fanout; median of %d passes", shardBenchHours, shardBenchNodes, shardBenchReps),
		},
	}
	var base float64
	for _, n := range shardBenchCounts {
		rate := shardMeasure(caps, m, n)
		if n == 1 {
			base = rate
		}
		report.Shards = append(report.Shards, shardEntry{
			Shards:         n,
			CapturesPerSec: rate,
			Speedup:        rate / base,
		})
	}
	return report, nil
}

// runShardBench regenerates the BENCH_shard.json baseline.
func runShardBench(path string) error {
	report, err := shardRun()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	for _, e := range report.Shards {
		fmt.Printf("shards=%d  %9.0f captures/s  speedup %.2fx\n", e.Shards, e.CapturesPerSec, e.Speedup)
	}
	fmt.Printf("wrote %s (cores=%d)\n", path, report.Workload.Cores)
	return nil
}

// runShardCheck remeasures the scaling curve and fails when the fresh
// 4-shard speedup falls below the core-count-tiered floor. The committed
// baseline is reported for context; the gate itself is machine-relative
// (a 1-core CI box cannot reproduce an 8-core runner's curve).
// PH_SKIP_SHARD_CHECK=1 skips the check.
func runShardCheck(path string) error {
	if os.Getenv("PH_SKIP_SHARD_CHECK") != "" {
		fmt.Println("shardcheck: skipped (PH_SKIP_SHARD_CHECK set)")
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old shardReport
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("shardcheck: %s: %w", path, err)
	}
	fresh, err := shardRun()
	if err != nil {
		return err
	}
	floor := shardSpeedupFloor(runtime.NumCPU())
	var got float64
	for _, e := range fresh.Shards {
		var rec float64
		for _, oe := range old.Shards {
			if oe.Shards == e.Shards {
				rec = oe.Speedup
			}
		}
		fmt.Printf("shards=%d  recorded %.2fx (on %d cores)  fresh %.2fx\n",
			e.Shards, rec, old.Workload.Cores, e.Speedup)
		if e.Shards == 4 {
			got = e.Speedup
		}
	}
	if got < floor {
		return fmt.Errorf("shardcheck: 4-shard speedup %.2fx below the %.2fx floor for %d cores",
			got, floor, runtime.NumCPU())
	}
	fmt.Printf("shardcheck: 4-shard speedup %.2fx meets the %.2fx floor for %d cores\n",
		got, floor, runtime.NumCPU())
	return nil
}
