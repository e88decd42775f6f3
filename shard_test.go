package pseudohoneypot

import (
	"fmt"
	"os"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/shard"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// TestMain lets proc-mode sniffers spawn workers by re-executing this test
// binary: a process started with the worker env marker serves the extract
// RPC instead of running tests.
func TestMain(m *testing.M) {
	shard.MaybeWorker()
	os.Exit(m.Run())
}

// shardGoldenConfig is the reference configuration of the pinned streaming
// fingerprint (goldenStream in source_test.go), extended with a shard
// topology. Tracing and an isolated metrics registry are on: the
// observability layer — per-capture extract spans timed across the process
// boundary, trailer-fed worker gauges — must be invisible in every
// fingerprinted observable.
func shardGoldenConfig(shards int, mode string) SnifferConfig {
	return goldenStream(func(cfg *SnifferConfig) {
		cfg.Shards = shards
		cfg.ShardMode = mode
		cfg.Metrics = NewMetricsRegistry()
		cfg.Tracer = trace.New(trace.Config{Enabled: true, Buffer: 64})
	})
}

// TestShardedDeterminism is the tentpole's acceptance property: for shard
// counts {1,2,4,8} in both isolation modes, the sharded run's output —
// captures, labels, PGE tables, detection result — is bit-identical to
// the pinned golden fingerprint at the same seed. The consistent-hash
// partition, per-shard pipelines, and merge must be invisible in every
// observable.
func TestShardedDeterminism(t *testing.T) {
	for _, mode := range []string{"inproc", "proc"} {
		for _, shards := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("mode=%s/shards=%d", mode, shards), func(t *testing.T) {
				if testing.Short() && mode == "proc" && shards > 2 {
					t.Skip("short mode")
				}
				goldenCell(t, shardGoldenConfig(shards, mode))
			})
		}
	}
}
