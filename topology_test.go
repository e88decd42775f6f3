package pseudohoneypot

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/source"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/store/fstest"
)

// topologies is the executor table: every way the one streaming stage
// graph can be run. "stream" is the fanout at one shard.
var topologies = []struct {
	name   string
	shards int
	mode   string
}{
	{"stream", 0, ""},
	{"inproc×2", 2, "inproc"},
	{"inproc×4", 4, "inproc"},
	{"proc×1", 1, "proc"},
	{"proc×2", 2, "proc"},
}

// assertGolden requires res to reproduce the pinned streaming fingerprint.
func assertGolden(t *testing.T, res *DetectionResult) {
	t.Helper()
	if got := fingerprintResult(res); got != goldenStreamingFingerprint {
		t.Fatalf("fingerprint drifted from golden:\n got  %s\n want %s", got, goldenStreamingFingerprint)
	}
}

// goroutineBaseline records the goroutine count and returns a check that
// polls, with a short deadline, until the count is back at or below it —
// goroutines unwinding after their queue closed or their worker process
// died get the time to do so — and fails with a full dump otherwise.
func goroutineBaseline(t *testing.T) (settled func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Fatalf("%d goroutines before NewSniffer, %d after Close:\n%s",
					before, runtime.NumGoroutine(), buf)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// sourceCounts is what the per-source ingest counters of one run add up to.
type sourceCounts struct{ posts, captures float64 }

// goldenCell is the one end-to-end check every topology × durability cell
// shares: at the golden configuration, six hours advanced with
// Simulation.RunHours (what every program in examples/ does) reproduce
// goldenStreamingFingerprint; Close is idempotent; and every goroutine the
// sniffer started has stopped once Close returns.
func goldenCell(t *testing.T, cfg SnifferConfig) sourceCounts {
	t.Helper()
	counts, _ := sourcesCell(t, cfg, nil, goldenStreamingFingerprint)
	return counts
}

// sourcesCell is goldenCell over explicit sources (nil keeps the implicit
// twitter source) and the fingerprint they pin. It also holds the
// per-source counters (every cell has a registry of its own) to what
// matchPost saw, whatever the executor: posts and captures both counted,
// and the captures exactly the monitor's. It returns the counters and the
// captured tweet ids in capture order. The goroutine check runs last of
// the test's cleanups, after any server the sources func registered.
func sourcesCell(t *testing.T, cfg SnifferConfig, sources func(*Simulation) []IngestSource, want string) (sourceCounts, []socialnet.TweetID) {
	t.Helper()
	t.Setenv(parallel.EnvWorkers, "2")
	t.Cleanup(goroutineBaseline(t))
	sim := testSimulation(t)
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetricsRegistry()
	}
	if sources != nil {
		cfg.Sources = sources(sim)
	}
	sn, err := NewSniffer(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sn.Close)
	if sources != nil {
		// Explicit sources are advanced through the sniffer.
		if err := sn.RunHours(6); err != nil {
			t.Fatal(err)
		}
	} else {
		sim.RunHours(6)
	}
	res, err := sn.DetectAll()
	if err != nil {
		t.Fatal(err)
	}
	fams := cfg.Metrics.Snapshot()
	counts := sourceCounts{
		posts:    counterTotal(fams, "ph_source_posts_total", nil),
		captures: counterTotal(fams, "ph_source_captures_total", nil),
	}
	captures := sn.Monitor().Captures()
	if counts.posts == 0 || counts.captures != float64(len(captures)) {
		t.Fatalf("per-source counters: %v posts, %v captures, monitor holds %d",
			counts.posts, counts.captures, len(captures))
	}
	ids := make([]socialnet.TweetID, len(captures))
	for i, c := range captures {
		ids[i] = c.Tweet.ID
	}
	sn.Close()
	sn.Close()
	if got := fingerprintResult(res); got != want {
		t.Fatalf("fingerprint drifted from golden:\n got  %s\n want %s", got, want)
	}
	return counts, ids
}

// TestTopologyMatrix runs every executor with durability off and on, and
// proc × 2 over every kind of explicit source. The proc × durable cells and
// the proc × sources cells are the tests of the two Validate rules this
// matrix replaced ("proc shard mode does not support durability", "… does
// not support explicit Sources"): a straight run, a clean restart that
// resumes, a crash at hour k, a mux of one, a mux of two and a replayed
// recording all land on their golden fingerprint. Every cell also exports
// the same per-source counters — they are matchPost's, in every mode.
//
// The wire rows run the emulated Streaming API as the source, served over
// the cell's simulation by a server seeded like the in-process screener:
// twice per executor they land on goldenWireFingerprint, and they capture
// exactly the in-process golden run's tweets, in order. (Their profiles
// come off the wire, so their feature vectors are not the golden's.)
func TestTopologyMatrix(t *testing.T) {
	var first *sourceCounts
	var goldenIDs []socialnet.TweetID
	for _, topo := range topologies {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/durable=%t", topo.name, durable), func(t *testing.T) {
				cfg := shardGoldenConfig(topo.shards, topo.mode)
				if durable {
					cfg.Durability = DurabilityConfig{Backend: fstest.New(), SyncEvery: 4}
				}
				got, ids := sourcesCell(t, cfg, nil, goldenStreamingFingerprint)
				if first == nil {
					first, goldenIDs = &got, ids
				}
				if got != *first {
					t.Fatalf("per-source counters %+v differ from the first cell's %+v", got, *first)
				}
			})
		}
	}

	for _, topo := range topologies {
		if topo.shards > 2 || topo.shards == 1 {
			continue // wire × {stream, inproc×2, proc×2}
		}
		for run := 1; run <= 2; run++ {
			t.Run(fmt.Sprintf("wire/%s/run=%d", topo.name, run), func(t *testing.T) {
				_, ids := sourcesCell(t, shardGoldenConfig(topo.shards, topo.mode), wireSources(t), goldenWireFingerprint)
				if len(goldenIDs) == 0 || fmt.Sprint(ids) != fmt.Sprint(goldenIDs) {
					t.Fatalf("wire captured %d tweets, the in-process golden run %d, and they differ", len(ids), len(goldenIDs))
				}
			})
		}
	}

	t.Run("proc×2/clean-restart", func(t *testing.T) {
		// Close lets hour 3's in-flight batches clear the tail into the
		// WAL: the tail the restart replays.
		cfg := shardGoldenConfig(2, "proc")
		cfg.Durability = DurabilityConfig{Backend: fstest.New()}
		cleanRestartResumes(t, cfg)
	})

	t.Run("proc×2/crash-at-hour-3", func(t *testing.T) {
		t.Setenv(parallel.EnvWorkers, "2")
		b := fstest.New()
		cfg := shardGoldenConfig(2, "proc")
		cfg.Durability = DurabilityConfig{Backend: b, SyncEvery: 8}
		crashAndRecover(t, cfg, b, 3, 5, nil)
	})

	t.Run("proc×2/mux-of-one", func(t *testing.T) {
		sourcesCell(t, shardGoldenConfig(2, "proc"), func(sim *Simulation) []IngestSource {
			return []IngestSource{source.NewMux(NewTwitterSource(sim))}
		}, goldenStreamingFingerprint)
	})

	t.Run("proc×2/mux-of-two", func(t *testing.T) {
		sourcesCell(t, shardGoldenConfig(2, "proc"), func(sim *Simulation) []IngestSource {
			reddit, err := NewRedditSource(RedditSourceConfig{Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			return []IngestSource{NewTwitterSource(sim), reddit}
		}, goldenMuxFingerprint)
	})

	t.Run("proc×2/record→replay", func(t *testing.T) {
		t.Setenv(parallel.EnvWorkers, "2")
		dir, want := recordGoldenRun(t)
		sourcesCell(t, shardGoldenConfig(2, "proc"), func(*Simulation) []IngestSource {
			src, err := NewReplaySource(dir)
			if err != nil {
				t.Fatal(err)
			}
			return []IngestSource{src}
		}, want)
	})
}

// TestProcLabelsWithinTheHour: in proc mode a capture reaches the label
// step at the stage graph's micro-batch latency, like everywhere else, not
// at the next hour boundary. Half an hour into the first hour — the only
// hook that has fired is hour 0's — a drain finds the label store already
// populated and every capture so far completed.
func TestProcLabelsWithinTheHour(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "2")
	sim := testSimulation(t)
	sn, err := NewSniffer(sim, shardGoldenConfig(2, "proc"))
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	hooks := 0
	sim.engine.OnHourStart(func(int, time.Time) { hooks++ })
	halfPast := sim.Now().Add(30 * time.Minute)
	checked := false
	// Registered after the sniffer's own subscription, so the sniffer has
	// already matched the tweet this callback sees; the engine is blocked in
	// the callback, which is the quiescence a drain needs.
	cancel := sim.Subscribe(func(tw *Tweet) {
		if checked || tw.CreatedAt.Before(halfPast) {
			return
		}
		checked = true
		sn.drainPipeline()
		labeled, _ := sn.tail.labels.Len()
		if captured := len(sn.Monitor().Captures()); hooks != 1 || labeled == 0 || labeled != captured {
			t.Errorf("half an hour in, after %d hour hooks: %d tweets labeled, %d captured", hooks, labeled, captured)
		}
	})
	defer cancel()
	sim.RunHours(1)
	if !checked {
		t.Fatal("no tweet in the second half of the hour")
	}
}

// TestProcAdvancedBySimulation is the regression test for proc mode
// capturing nothing unless driven through Sniffer.RunHours (its hour hook
// used to reset buffers only Sniffer.RunHours flushed). A DetectAll in the
// middle of a run must drain what is in flight without disturbing what
// follows: the schedule run 3 h, detect, run 3 h, detect
// gives the same result in proc mode as on goroutine shards. (It is not
// the golden: a mid-run DetectAll feeds verdicts back into the extractor's
// environment scores, in every topology alike.)
func TestProcAdvancedBySimulation(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "2")
	run := func(mode string) string {
		sim := testSimulation(t)
		sn, err := NewSniffer(sim, shardGoldenConfig(2, mode))
		if err != nil {
			t.Fatal(err)
		}
		defer sn.Close()
		sim.RunHours(3)
		mid, err := sn.DetectAll()
		if err != nil {
			t.Fatalf("mode=%s mid-run DetectAll: %v", mode, err)
		}
		if mid.Captures == 0 {
			t.Fatalf("mode=%s captured nothing in 3 hours", mode)
		}
		sim.RunHours(3)
		res, err := sn.DetectAll()
		if err != nil {
			t.Fatal(err)
		}
		return fingerprintResult(res)
	}
	if proc, inproc := run("proc"), run("inproc"); proc != inproc {
		t.Fatalf("detect-mid-run schedule diverged:\n proc   %s\n inproc %s", proc, inproc)
	}
}

// TestFailedAttachReleasesStore: when the stage graph cannot be attached
// (here: the worker binary is missing, so spawning the proc fleet fails),
// NewSniffer must release what it already acquired — above all the durable
// store's directory lock, or no later sniffer could open the store.
func TestFailedAttachReleasesStore(t *testing.T) {
	cfg := shardGoldenConfig(2, "proc")
	cfg.Durability = DurabilityConfig{Backend: fstest.New()}

	self := os.Args[0]
	os.Args[0] = filepath.Join(t.TempDir(), "no-such-worker-binary")
	_, err := NewSniffer(testSimulation(t), cfg)
	os.Args[0] = self
	if err == nil {
		t.Fatal("NewSniffer spawned workers from a missing binary")
	}

	sn, err := NewSniffer(testSimulation(t), cfg)
	if err != nil {
		t.Fatalf("store still held after the failed attach: %v", err)
	}
	sn.Close()
}
