package pseudohoneypot

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
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

// goldenCell is the one end-to-end check every topology × durability cell
// shares: at the golden configuration, six hours advanced with
// Simulation.RunHours (what every program in examples/ does) reproduce
// goldenStreamingFingerprint; Close is idempotent; and every goroutine the
// sniffer started has stopped once Close returns.
func goldenCell(t *testing.T, cfg SnifferConfig) {
	t.Helper()
	t.Setenv(parallel.EnvWorkers, "2")
	settled := goroutineBaseline(t)
	sim := testSimulation(t)
	sn, err := NewSniffer(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sn.Close)
	sim.RunHours(6)
	res, err := sn.DetectAll()
	if err != nil {
		t.Fatal(err)
	}
	sn.Close()
	sn.Close()
	assertGolden(t, res)
	settled()
}

// TestTopologyMatrix runs every executor with durability off and on. The
// proc × durable cells are the tests of the Validate rule this matrix
// replaced ("proc shard mode does not support durability"): a straight run,
// a clean restart that resumes, and a crash at hour k all land on the
// golden fingerprint.
func TestTopologyMatrix(t *testing.T) {
	for _, topo := range topologies {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/durable=%t", topo.name, durable), func(t *testing.T) {
				cfg := shardGoldenConfig(topo.shards, topo.mode)
				if durable {
					cfg.Durability = DurabilityConfig{Backend: fstest.New(), SyncEvery: 4}
				}
				goldenCell(t, cfg)
			})
		}
	}

	t.Run("proc×2/clean-restart", func(t *testing.T) {
		// Close flushes hour 3's open epoch into the WAL: the tail the
		// restart replays.
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
}

// TestProcAdvancedBySimulation is the regression test for proc mode
// capturing nothing unless driven through Sniffer.RunHours: the hour hook's
// BeginEpoch used to reset epoch buffers only Sniffer.RunHours flushed. A
// DetectAll in the middle of a run must flush the open epoch without
// disturbing what follows: the schedule run 3 h, detect, run 3 h, detect
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
