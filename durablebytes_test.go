package pseudohoneypot

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/store"
)

// TestDurableBytesAreAFunctionOfTheStream: every byte a durable run writes
// is a function of its seed, and every checkpoint a function of the stream
// prefix it covers. Two uninterrupted runs of one seed leave the same hash
// on every file. A run stopped at hour k and reopened to the same end
// leaves checkpoint files byte-equal to the uninterrupted run's at every
// seq both hold, and a WAL that decodes to the same log; the WAL files
// themselves differ, because a reopen starts a new segment by design. A
// reopened recording agrees on every capture record but its seq.
//
// The cells cover every executor, worker count, batch size and recording
// mode across three seeds of a small world, with an online detector so
// that its section is cut too.
func TestDurableBytesAreAFunctionOfTheStream(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three durable sniffers per cell")
	}
	const hours = 12
	cells := []struct {
		seed    int64
		stop    int
		shards  int
		mode    string
		workers string
		batch   int
		record  bool
	}{
		{seed: 1, stop: 3, workers: "1", batch: 16},
		{seed: 2, stop: 4, shards: 2, mode: "inproc", workers: "2", batch: 1},
		{seed: 3, stop: 2, shards: 2, mode: "proc", workers: "2", batch: 16},
		{seed: 1, stop: 4, shards: 2, mode: "proc", workers: "1", batch: 1, record: true},
		{seed: 2, stop: 3, workers: "2", batch: 16, record: true},
		{seed: 3, stop: 5, shards: 2, mode: "inproc", workers: "1", batch: 0, record: true},
	}
	for _, c := range cells {
		name := fmt.Sprintf("seed=%d/stop=%d/shards=%d%s/workers=%s/batch=%d/record=%t",
			c.seed, c.stop, c.shards, c.mode, c.workers, c.batch, c.record)
		t.Run(name, func(t *testing.T) {
			t.Setenv(parallel.EnvWorkers, c.workers)
			cfg := func(dir string) SnifferConfig {
				online, err := NewOnlineDetector(ClassifierDT, 300, 50, c.seed)
				if err != nil {
					t.Fatal(err)
				}
				return SnifferConfig{
					Specs:     RandomSpec(300),
					Seed:      c.seed,
					Shards:    c.shards,
					ShardMode: c.mode,
					Stream:    StreamConfig{BatchSize: c.batch},
					Online:    online,
					Metrics:   NewMetricsRegistry(),
					Durability: DurabilityConfig{
						Dir: dir, SyncEvery: 8, RecordRotations: c.record,
					},
				}
			}
			whole, again, resumed := t.TempDir(), t.TempDir(), t.TempDir()
			want := durableSegment(t, c.seed, cfg(whole), hours)
			if got := durableSegment(t, c.seed, cfg(again), hours); got != want {
				t.Fatalf("two uninterrupted runs detect differently:\n %s\n %s", want, got)
			}
			wantFiles := dirHashes(t, whole)
			if got := dirHashes(t, again); !reflect.DeepEqual(got, wantFiles) {
				t.Fatalf("two uninterrupted runs of one seed differ:\n first  %v\n second %v", wantFiles, got)
			}

			durableSegment(t, c.seed, cfg(resumed), c.stop)
			atStop := dirHashes(t, resumed)
			if got := durableSegment(t, c.seed, cfg(resumed), hours); got != want {
				t.Fatalf("the resumed run detects differently:\n %s\n %s", want, got)
			}
			wantLog, gotLog := readLogDir(t, whole), readLogDir(t, resumed)
			if c.record {
				// A recording's Close stamps a profile epilogue into the
				// log, and the reopen journals the re-simulated hours'
				// rotations again; each takes a seq, so no later cut
				// shares a seq with the uninterrupted run's. What the
				// stream decides must still agree: every capture record
				// but its seq.
				if len(gotLog.Captures) != len(wantLog.Captures) {
					t.Fatalf("the resumed recording logs %d captures, want %d", len(gotLog.Captures), len(wantLog.Captures))
				}
				for i, w := range wantLog.Captures {
					g := *gotLog.Captures[i]
					g.Seq = w.Seq
					if !reflect.DeepEqual(&g, w) {
						t.Fatalf("capture record %d differs from the uninterrupted run's", i)
					}
				}
				return
			}
			compared := 0
			for name, h := range dirHashes(t, resumed) {
				wh, ok := wantFiles[name]
				if !strings.HasPrefix(name, "ckpt-") || !ok {
					continue
				}
				if _, old := atStop[name]; !old {
					compared++
				}
				if wh != h {
					t.Errorf("checkpoint %s differs from the uninterrupted run's", name)
				}
			}
			if compared == 0 {
				t.Fatalf("the reopen cut no checkpoint at a seq the uninterrupted run cut: %v", wantFiles)

			}
			if !reflect.DeepEqual(gotLog, wantLog) {
				t.Errorf("the resumed run's WAL decodes differently: %d/%d captures, %d/%d rotations",
					len(gotLog.Captures), len(wantLog.Captures), len(gotLog.Rotations), len(wantLog.Rotations))
			}
		})
	}
}

// durableSegment opens a sniffer of cfg on a fresh simulation of seed (a
// reopen when cfg's directory already holds a run), runs it to hour
// hours, detects and closes it, and returns the detection fingerprint.
func durableSegment(t *testing.T, seed int64, cfg SnifferConfig, hours int) string {
	t.Helper()
	wcfg := DefaultConfig()
	wcfg.Seed = seed
	wcfg.NumAccounts = 3000
	wcfg.OrganicTweetsPerHour = 600
	sim, err := NewSimulation(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := NewSniffer(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	if err := sn.RunHours(hours); err != nil {
		t.Fatal(err)
	}
	res, err := sn.DetectAll()
	if err != nil {
		t.Fatal(err)
	}
	return fingerprintResult(res)
}

// readLogDir decodes every WAL segment in dir.
func readLogDir(t *testing.T, dir string) *store.Log {
	t.Helper()
	b, err := store.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	log, err := store.ReadLog(b)
	if err != nil {
		t.Fatal(err)
	}
	return log
}
