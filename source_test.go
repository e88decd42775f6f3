package pseudohoneypot

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
)

// goldenStream is the reference streaming configuration every golden
// fingerprint in this file is taken under (seed 1, 120 random nodes,
// 16-tweet micro-batches, PH_WORKERS=2 — the same knobs as
// goldenStreamingFingerprint).
func goldenStream(extra func(*SnifferConfig)) SnifferConfig {
	cfg := SnifferConfig{
		Specs: RandomSpec(120),
		Seed:  1,
		Stream: StreamConfig{
			BatchSize:     16,
			FlushInterval: time.Millisecond,
		},
	}
	if extra != nil {
		extra(&cfg)
	}
	return cfg
}

// TestTwitterSourceGolden proves the explicit twitter source is the same
// adapter the sniffer builds implicitly: a run with
// Sources=[NewTwitterSource(sim)] reproduces the pinned streaming
// fingerprint bit for bit.
func TestTwitterSourceGolden(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "2")
	sim := testSimulation(t)
	sniffer, err := NewSniffer(sim, goldenStream(func(cfg *SnifferConfig) {
		cfg.Sources = []IngestSource{NewTwitterSource(sim)}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer sniffer.Close()
	if err := sniffer.RunHours(6); err != nil {
		t.Fatal(err)
	}
	res, err := sniffer.DetectAll()
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, res)
}

// TestReplayReproducesRun is the replay acceptance property: a durable run
// recorded with rotation records, re-fed through the full pipeline by a
// ReplaySource, reproduces the recording's detection result bit for bit —
// repeatedly, since a recording is replayable any number of times, and at
// 1, 2 and 4 shards: the recording pins a capture order, and the fanout's
// merge restores it (the "a replay source cannot be sharded" rule is gone).
func TestReplayReproducesRun(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "2")
	dir, want := recordGoldenRun(t)
	for _, shards := range []int{1, 2, 4} {
		src, err := NewReplaySource(dir)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := NewSniffer(nil, goldenStream(func(cfg *SnifferConfig) {
			cfg.Sources = []IngestSource{src}
			cfg.Shards = shards
		}))
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.RunHours(6); err != nil {
			t.Fatal(err)
		}
		repRes, err := rep.DetectAll()
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprintResult(repRes); got != want {
			t.Fatalf("replay at %d shards diverged from its recording:\n got  %s\n want %s", shards, got, want)
		}
		rep.Close()
	}
}

// TestRecordingIsDeterministic: a recording's files are a function of its
// seed. Two recordings of the reference run hold the same bytes, file for
// file — the rotation records land after the hour's captures, not wherever
// the tail happened to be when the hour hook fired.
func TestRecordingIsDeterministic(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "2")
	first, _ := recordGoldenRun(t)
	second, _ := recordGoldenRun(t)
	want, got := dirHashes(t, first), dirHashes(t, second)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("two recordings of one seed differ:\n first  %v\n second %v", want, got)
	}
}

// dirHashes maps every file name in dir to the SHA-256 of its contents.
func dirHashes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	hashes := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		hashes[e.Name()] = fmt.Sprintf("%x", sha256.Sum256(b))
	}
	return hashes
}

// recordGoldenRun records six hours at the reference configuration, with
// rotation records, into a fresh directory, and returns it with the
// recording run's fingerprint — which is the golden one.
func recordGoldenRun(t *testing.T) (dir, fingerprint string) {
	t.Helper()
	dir = t.TempDir()
	sim := testSimulation(t)
	rec, err := NewSniffer(sim, goldenStream(func(cfg *SnifferConfig) {
		cfg.Durability = DurabilityConfig{
			Dir: dir,
			// The run cuts several checkpoints on purpose: RecordRotations
			// must suspend compaction pruning (store RetainAll), or the
			// segments the replay needs would be gone by the end of the
			// recording.
			RecordRotations: true,
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.RunHours(6); err != nil {
		t.Fatal(err)
	}
	res, err := rec.DetectAll()
	if err != nil {
		t.Fatal(err)
	}
	fingerprint = fingerprintResult(res)
	if fingerprint != goldenStreamingFingerprint {
		t.Fatalf("recording run drifted from the golden run:\n got  %s\n want %s",
			fingerprint, goldenStreamingFingerprint)
	}
	rec.Close() // stamps the profile epilogue the replay labels against
	return dir, fingerprint
}

// goldenMuxFingerprint pins the muxed twitter+reddit run at the reference
// configuration. TestMuxDeterminism proves the merge is deterministic
// across shard counts and repeated runs; this constant pins the merged
// stream's result across builds.
const goldenMuxFingerprint = "7a73d28975b8961d09ce5866a9253e0cfbc5ae70fc510ca03c1505d1e69a0215"

// muxDetection runs one twitter+reddit muxed detection at the reference
// configuration with the given shard count.
func muxDetection(t *testing.T, shards int) *DetectionResult {
	t.Helper()
	sim := testSimulation(t)
	reddit, err := NewRedditSource(RedditSourceConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sniffer, err := NewSniffer(sim, goldenStream(func(cfg *SnifferConfig) {
		cfg.Sources = []IngestSource{NewTwitterSource(sim), reddit}
		cfg.Shards = shards
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer sniffer.Close()
	if err := sniffer.RunHours(6); err != nil {
		t.Fatal(err)
	}
	res, err := sniffer.DetectAll()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMuxDeterminism pins the muxed twitter+reddit run and proves the
// deterministic k-way merge: the same fingerprint at shard counts 1, 2,
// and 4, and again on a repeated unsharded run.
func TestMuxDeterminism(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "2")
	for _, shards := range []int{0, 0, 2, 4} {
		res := muxDetection(t, shards)
		if got := fingerprintResult(res); got != goldenMuxFingerprint {
			t.Fatalf("mux fingerprint drifted (shards=%d):\n got  %s\n want %s",
				shards, got, goldenMuxFingerprint)
		}
	}
}

// TestSnifferConfigValidate covers every cross-field rule Validate
// enforces, including the ones NewSniffer used to reject piecemeal. The
// "proc with durability" and "replay cannot shard" rows are valid since the
// one-tail refactor, and the "sources in proc mode" rule went with the epoch
// wire: TestTopologyMatrix and TestReplayReproducesRun run those
// combinations end to end. The "without stream" rows are valid since every
// sniffer runs on the stage graph: there is no batch path to exclude
// sharding, durability or explicit sources from.
func TestSnifferConfigValidate(t *testing.T) {
	replaySrc := func(t *testing.T) IngestSource {
		t.Helper()
		dir := t.TempDir()
		cfg := DefaultConfig()
		cfg.NumAccounts = 600
		cfg.OrganicTweetsPerHour = 60
		sim, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := NewSniffer(sim, SnifferConfig{
			Specs: RandomSpec(40),
			Durability: DurabilityConfig{
				Dir: dir, RecordRotations: true,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.RunHours(1); err != nil {
			t.Fatal(err)
		}
		rec.Close()
		src, err := NewReplaySource(dir)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	tw := func(t *testing.T) IngestSource {
		t.Helper()
		r, err := NewRedditSource(RedditSourceConfig{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	cases := []struct {
		name string
		cfg  func(t *testing.T) SnifferConfig
		want string // error substring, empty = valid
	}{
		{"zero value", func(*testing.T) SnifferConfig { return SnifferConfig{} }, ""},
		{"unknown shard mode", func(*testing.T) SnifferConfig {
			return SnifferConfig{ShardMode: "threads"}
		}, "unknown shard mode"},
		{"shards without stream", func(*testing.T) SnifferConfig {
			return SnifferConfig{Shards: 2}
		}, ""},
		{"proc without stream", func(*testing.T) SnifferConfig {
			return SnifferConfig{ShardMode: "proc"}
		}, ""},
		{"proc with durability", func(*testing.T) SnifferConfig {
			return SnifferConfig{ShardMode: "proc", Durability: DurabilityConfig{Dir: "x"}}
		}, ""},
		{"durability without stream", func(*testing.T) SnifferConfig {
			return SnifferConfig{Durability: DurabilityConfig{Dir: "x"}}
		}, ""},
		{"record rotations without store", func(*testing.T) SnifferConfig {
			return SnifferConfig{Durability: DurabilityConfig{RecordRotations: true}}
		}, "RecordRotations requires a durable store"},
		{"sources without stream", func(t *testing.T) SnifferConfig {
			return SnifferConfig{Sources: []IngestSource{tw(t)}}
		}, ""},
		{"sources with durability", func(t *testing.T) SnifferConfig {
			return SnifferConfig{Durability: DurabilityConfig{Dir: "x"},
				Sources: []IngestSource{tw(t)}}
		}, "explicit Sources do not support durability: the recovery watermark is a tweet id"},
		{"nil source entry", func(*testing.T) SnifferConfig {
			return SnifferConfig{Sources: []IngestSource{nil}}
		}, "nil entry in Sources"},
		{"replay must ride alone", func(t *testing.T) SnifferConfig {
			return SnifferConfig{Sources: []IngestSource{replaySrc(t), tw(t)}}
		}, "replay source must be the sole source"},
		{"replay cannot shard", func(t *testing.T) SnifferConfig {
			return SnifferConfig{Shards: 2,
				Sources: []IngestSource{replaySrc(t)}}
		}, ""},
		{"valid multi-source", func(t *testing.T) SnifferConfig {
			return SnifferConfig{Sources: []IngestSource{tw(t), tw(t)}}
		}, ""},
		{"valid sharded sources", func(t *testing.T) SnifferConfig {
			return SnifferConfig{Shards: 4,
				Sources: []IngestSource{tw(t)}}
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg(t).Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestSourceMetricsLabels asserts the per-source ingest counters appear
// with one label per source in a muxed run.
func TestSourceMetricsLabels(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "2")
	reg := NewMetricsRegistry()
	sim := testSimulation(t)
	reddit, err := NewRedditSource(RedditSourceConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sniffer, err := NewSniffer(sim, goldenStream(func(cfg *SnifferConfig) {
		cfg.Sources = []IngestSource{NewTwitterSource(sim), reddit}
		cfg.Metrics = reg
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer sniffer.Close()
	if err := sniffer.RunHours(2); err != nil {
		t.Fatal(err)
	}
	if _, err := sniffer.DetectAll(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`ph_source_posts_total{source="twitter"}`,
		`ph_source_posts_total{source="reddit"}`,
		`ph_source_captures_total{source="twitter"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics text missing %s", want)
		}
	}
}
