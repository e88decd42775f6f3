package main

import (
	"fmt"

	ph "github.com/pseudo-honeypot/pseudohoneypot"
)

// scale fixes the firehose every workload consumes and the size of the two
// deployment plans. The benchmark runs at benchScale; the smoke test shrinks
// everything together.
type scale struct {
	Accounts      int `json:"accounts"`
	Organic       int `json:"organic_per_hour"`
	NodesPerValue int `json:"nodes_per_value"` // paper plan: StandardSpecs(n)
	RandomNodes   int `json:"random_nodes"`    // dense plan: RandomSpec(n)
}

// benchScale is the issue's medium world. Only the run length is cut (8
// simulated hours instead of 48, see defaultHours) so that three repeats of
// the slowest workload fit the per-run time the benchmark contract allows.
var benchScale = scale{Accounts: 20000, Organic: 4000, NodesPerValue: 4, RandomNodes: 2000}

// defaultHours is the simulated run length. At 8 hours the hourly checkpoints
// stay under internal/store's 16 MiB read bound, so the durable workload can
// be reopened; from about 10 hours on they cannot (README, known failures).
const defaultHours = 8

// workload is one deployment plan and topology over the shared firehose.
type workload struct {
	Name   string
	Why    string
	Dense  bool // RandomSpec plan instead of the paper's selector plan
	Stream bool
	WAL    bool
	Shards int
}

// workloads lists the benchmark's rows in report order. The three dense rows
// must produce the same detection result bit for bit.
var workloads = []workload{
	{
		Name: "paper-batch",
		Why:  "batch topology with the paper's 123-selector plan: hourly rotation (full-world Screen scans), batch labeling and the forest fit dominate",
	},
	{
		Name: "dense-stream", Dense: true, Stream: true,
		Why: "streaming topology with one 2,000-node random group: rotation is cheap, so match, feature extraction, label.AddBatch and the stage queues do the work",
	},
	{
		Name: "dense-stream-wal", Dense: true, Stream: true, WAL: true,
		Why: "dense-stream plus WAL (fsync every 512) and hourly checkpoints, then a reopen: same input and result, so the difference is the cost of durability, writes and recovery",
	},
	{
		Name: "dense-shard2", Dense: true, Stream: true, Shards: 2,
		Why: "dense-stream fanned out over 2 in-process shards: same input and result, so dense-stream / dense-shard2 is the sharding claim measured on 2 cores",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// referenceFor names the workload whose untraced result w must reproduce bit
// for bit: every dense row answers to dense-stream.
func referenceFor(w workload) string {
	if w.Dense {
		return "dense-stream"
	}
	return w.Name
}

// tracedAs names the workload whose layer wiring stands in for w in a traced
// run. dense-shard2 has no wiring of its own: its layer work is dense-stream's
// by the bit-identity check, and the shard fanout is measured end to end.
func tracedAs(w workload) string {
	if w.Shards > 1 {
		return "dense-stream"
	}
	return w.Name
}

// runSpec is everything one run depends on; the parent hands it to a fresh
// child process as JSON.
type runSpec struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Seed     int64  `json:"seed"`
	Hours    int    `json:"hours"`
	Scale    scale  `json:"scale"`
	// Dir is an empty scratch directory for the run's durable store.
	Dir string `json:"dir,omitempty"`
	// TraceOut, when set on a traced run, receives the span file.
	TraceOut string `json:"trace_out,omitempty"`
}

// worldConfig builds the simulated world. The seed reaches only here and
// SnifferConfig.Seed.
func (s runSpec) worldConfig() ph.Config {
	cfg := ph.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.NumAccounts = s.Scale.Accounts
	cfg.OrganicTweetsPerHour = s.Scale.Organic
	return cfg
}

func (s runSpec) specs(w workload) []ph.SelectorSpec {
	if w.Dense {
		return ph.RandomSpec(s.Scale.RandomNodes)
	}
	return ph.StandardSpecs(s.Scale.NodesPerValue)
}

// Durability settings of the WAL workload.
const (
	walSyncEvery       = 512
	walCheckpointEvery = 1
)
