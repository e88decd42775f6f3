package pseudohoneypot

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/store"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/store/fstest"
)

// durableConfig is the golden reference configuration (seed 1, 120 random
// nodes, 16-tweet micro-batches — see goldenStreamingFingerprint) with the
// durable store bound to b. Crash-equivalence compares every recovered run
// against that same pinned fingerprint: recovery is correct exactly when a
// crashed-and-restarted run is indistinguishable from one that never died.
func durableConfig(b StoreBackend, syncEvery int) SnifferConfig {
	return goldenStream(func(cfg *SnifferConfig) {
		cfg.Durability = DurabilityConfig{Backend: b, SyncEvery: syncEvery}
	})
}

// crashSniffer kills a durable sniffer the way kill -9 would: detach from
// the engine, let in-flight stage work land in the store's buffers (the
// first half of Close, in whatever topology is attached), then discard
// everything unsynced — keeping tornBytes of a half-flushed tail — and
// abandon the directory lock. The store is deliberately NOT closed: a
// dead process never gets to flush, so anything still buffered must be
// recovered by re-simulation, not by a graceful shutdown the real failure
// would never have run.
func crashSniffer(s *Sniffer, b *fstest.Backend, tornBytes int) {
	s.stopStages()
	b.Crash(tornBytes)
}

// crashAndRecover is one crash scenario in any topology: run cfg (durable
// on b) for crashHour hours — with fault, if any, armed first — kill it
// keeping torn bytes of the unsynced tail, restart against the surviving
// bytes, and require the finished run to land on the golden fingerprint.
func crashAndRecover(t *testing.T, cfg SnifferConfig, b *fstest.Backend, crashHour, torn int, fault func(*fstest.Backend)) {
	t.Helper()
	crashAfterArming(t, cfg, b, 0, crashHour, torn, fault)
}

// crashAfterArming is crashAndRecover with the fault armed after armHour
// hours instead of before the run. It returns the sequences the newest
// checkpoint covered when the fault was armed and when the run crashed,
// so a scenario can pin where its fault fell relative to the cuts. A
// mid-run fault gets one hour to fire, and a drain then lets the tail see
// its outcome before the next hour hook: the stages run behind the
// delivery goroutine, so otherwise the hook that reacts to a failed
// append could be either of the next two.
func crashAfterArming(t *testing.T, cfg SnifferConfig, b *fstest.Backend, armHour, crashHour, torn int, fault func(*fstest.Backend)) (armed, crashed uint64) {
	t.Helper()
	sim := testSimulation(t)
	sn, err := NewSniffer(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunHours(armHour)
	if fault != nil {
		fault(b)
	}
	armed = sn.DurableStore().Status().LastCheckpointSeq
	if armHour > 0 {
		sim.RunHours(1)
		sn.drainPipeline()
		sim.RunHours(crashHour - armHour - 1)
	} else {
		sim.RunHours(crashHour)
	}
	crashed = sn.DurableStore().Status().LastCheckpointSeq
	crashSniffer(sn, b, torn)
	assertGolden(t, restartAndFinish(t, cfg, 6))
	return armed, crashed
}

// restartAndFinish is the second half of every crash scenario: a fresh
// simulation at the same seed against the same backend, full re-run,
// detection. It asserts that recovery actually found durable state.
func restartAndFinish(t *testing.T, cfg SnifferConfig, hours int) *DetectionResult {
	t.Helper()
	sim := testSimulation(t)
	sn, err := NewSniffer(sim, cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer sn.Close()
	rec := sn.Recovery()
	if rec == nil {
		t.Fatal("restarted sniffer reports no recovery state")
	}
	if rec.Checkpoint == nil && len(rec.Records) == 0 {
		t.Fatal("recovery found nothing durable")
	}
	sim.RunHours(hours)
	res, err := sn.DetectAll()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDurableStreamingMatchesGolden: the WAL and hourly checkpoints must
// be behaviour-neutral — an uninterrupted durable run reproduces the
// pinned streaming fingerprint bit for bit, and leaves segments plus
// checkpoints on the backend.
func TestDurableStreamingMatchesGolden(t *testing.T) {
	b := fstest.New()
	goldenCell(t, durableConfig(b, 1))
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	var segs, ckpts int
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") {
			segs++
		}
		if strings.HasPrefix(n, "ckpt-") {
			ckpts++
		}
	}
	if segs == 0 || ckpts == 0 {
		t.Fatalf("durable run left %d segments and %d checkpoints, want both > 0 (%v)",
			segs, ckpts, names)
	}
}

// TestDurableDirBackendGolden runs the same property on the real local-disk
// backend — the path the daemons use.
func TestDurableDirBackendGolden(t *testing.T) {
	cfg := durableConfig(nil, 4)
	cfg.Durability = DurabilityConfig{Dir: t.TempDir(), SyncEvery: 4}
	goldenCell(t, cfg)
}

// TestCrashRecoveryEquivalence is the fault-injection harness: kill a
// durable sniffer at varied points — different crash hours, group-commit
// settings, torn half-flushed tails, an injected write fault mid-WAL-append,
// a failed fsync — restart against the surviving bytes, re-run, and require
// the recovered run to converge on the exact golden fingerprint. Worker
// counts 1, 2, and 8 cover the stage-parallel extraction paths.
//
// The scenarios armed mid-run pin where the fault falls against the
// checkpoint schedule (at the golden configuration cuts land at hours 1, 3
// and 8): "post-checkpoint-write-fault" arms a write fault after the hour-3
// cut and crashes before the next one, so every record it touched must come
// back from the WAL tail — the group-commit rewrite, not a checkpoint, has
// to save them. "append-failure-cuts-early" fails an append and its retry
// both, losing one capture from the WAL; the failure must move the next cut
// up to the next hour boundary, which then covers the capture as state.
func TestCrashRecoveryEquivalence(t *testing.T) {
	type scenario struct {
		name      string
		syncEvery int
		armHour   int
		crashHour int
		torn      int
		fault     func(*fstest.Backend)
		// wantCut: whether a checkpoint must be cut between arming the
		// fault and the crash (checked when armHour > 0).
		wantCut bool
	}
	// writeFault tears a WAL flush a couple of writes from now: the append
	// path latches the broken segment, retries into a rotated one, and the
	// crash then discards the torn remains.
	writeFault := func(b *fstest.Backend) {
		b.FailAfter(fstest.OpWrite, b.Ops(fstest.OpWrite)+2)
	}
	// syncFault fails an fsync after its flush landed, leaving a fully
	// written but unsynced tail for Crash to tear.
	syncFault := func(b *fstest.Backend) {
		b.FailAfter(fstest.OpSync, b.Ops(fstest.OpSync)+3)
	}
	// flushFault fails the second group flush from now; the store's
	// rewrite onto a fresh segment absorbs it.
	flushFault := func(b *fstest.Backend) {
		b.FailAfter(fstest.OpWrite, 2)
	}
	// downFault fails a group flush and the store's rewrite of it alike.
	downFault := func(b *fstest.Backend) {
		b.FailAfter(fstest.OpWrite, 1)
		b.FailAfter(fstest.OpWrite, 2)
	}
	all := []scenario{
		{name: "sync-every-append", syncEvery: 1, crashHour: 2},
		{name: "group-commit-torn", syncEvery: 8, crashHour: 3, torn: 5},
		{name: "mid-append-write-fault", syncEvery: 4, crashHour: 3, torn: 3, fault: writeFault},
		{name: "fsync-fault-torn-tail", syncEvery: 4, crashHour: 4, torn: 11, fault: syncFault},
		{name: "late-crash", syncEvery: 1, crashHour: 5},
		{name: "post-checkpoint-write-fault", syncEvery: 4, armHour: 4, crashHour: 6, torn: 3, fault: flushFault},
		{name: "append-failure-cuts-early", syncEvery: 4, armHour: 4, crashHour: 6, fault: downFault, wantCut: true},
	}
	perWorker := map[string][]scenario{
		"1": {all[0], all[2], all[5]},
		"2": all,
		"8": {all[1], all[2], all[5]},
	}
	for _, workers := range []string{"1", "2", "8"} {
		t.Run("workers="+workers, func(t *testing.T) {
			t.Setenv(parallel.EnvWorkers, workers)
			for _, sc := range perWorker[workers] {
				t.Run(sc.name, func(t *testing.T) {
					b := fstest.New()
					cfg := durableConfig(b, sc.syncEvery)
					cfg.Metrics = NewMetricsRegistry()
					armed, crashed := crashAfterArming(t, cfg, b, sc.armHour, sc.crashHour, sc.torn, sc.fault)
					if sc.armHour == 0 {
						return
					}
					if armed == 0 || (crashed != armed) != sc.wantCut {
						t.Fatalf("fault armed under checkpoint seq %d, crash under %d: want a cut in between = %t",
							armed, crashed, sc.wantCut)
					}
					if counterTotal(cfg.Metrics.Snapshot(), "ph_store_wal_sync_errors_total", nil) == 0 {
						t.Fatal("the armed fault never fired before the crash")
					}
				})
			}
		})
	}
}

// TestCrashRecoveryDoubleCrash: a recovered run is itself durable — crash
// it again partway through its re-run, restart a second time, and the
// final run still converges on the golden fingerprint.
func TestCrashRecoveryDoubleCrash(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "2")
	b := fstest.New()
	cfg := durableConfig(b, 4)

	sim := testSimulation(t)
	sn, err := NewSniffer(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunHours(2)
	crashSniffer(sn, b, 3)

	sim2 := testSimulation(t)
	sn2, err := NewSniffer(sim2, cfg)
	if err != nil {
		t.Fatalf("first restart: %v", err)
	}
	sim2.RunHours(4)
	crashSniffer(sn2, b, 0)

	assertGolden(t, restartAndFinish(t, cfg, 6))
}

// TestDurableCleanRestartResumes: a graceful Close and reopen against the
// same directory resumes without double-counting — the restarted run lands
// on the golden fingerprint, and recovery reports both a checkpoint and a
// replayed WAL tail.
func TestDurableCleanRestartResumes(t *testing.T) {
	cfg := durableConfig(nil, 1)
	cfg.Durability = DurabilityConfig{Dir: t.TempDir()}
	cleanRestartResumes(t, cfg)
}

// cleanRestartResumes runs cfg (durable) for three hours, closes it
// gracefully, reopens the same store with a fresh simulation and finishes
// the six hours.
func cleanRestartResumes(t *testing.T, cfg SnifferConfig) {
	t.Helper()
	t.Setenv(parallel.EnvWorkers, "2")
	sim := testSimulation(t)
	sn, err := NewSniffer(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunHours(3)
	sn.Close()

	sim2 := testSimulation(t)
	sn2, err := NewSniffer(sim2, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer sn2.Close()
	rec := sn2.Recovery()
	if rec == nil || rec.Checkpoint == nil {
		t.Fatal("clean restart recovered no checkpoint")
	}
	if len(rec.Records) == 0 {
		t.Fatal("clean restart replayed no WAL tail past the checkpoint")
	}
	sim2.RunHours(6)
	res, err := sn2.DetectAll()
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, res)
}

// TestCrashRecoveryOnlineDetector: the online detector's sliding window and
// retrain schedule survive a crash — after recovery and re-run they match
// an uninterrupted run's exactly.
func TestCrashRecoveryOnlineDetector(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "2")

	uninterrupted, err := NewOnlineDetector(ClassifierDT, 400, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfgA := durableConfig(fstest.New(), 1)
	cfgA.Online = uninterrupted
	runDetection(t, cfgA, 6)

	crashed, err := NewOnlineDetector(ClassifierDT, 400, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := fstest.New()
	cfgB := durableConfig(b, 1)
	cfgB.Online = crashed
	sim := testSimulation(t)
	sn, err := NewSniffer(sim, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunHours(3)
	crashSniffer(sn, b, 0)

	recovered, err := NewOnlineDetector(ClassifierDT, 400, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfgB.Online = recovered
	restartAndFinish(t, cfgB, 6)

	if recovered.WindowSize() != uninterrupted.WindowSize() {
		t.Fatalf("recovered window = %d, uninterrupted = %d",
			recovered.WindowSize(), uninterrupted.WindowSize())
	}
	if recovered.Retrains() != uninterrupted.Retrains() {
		t.Fatalf("recovered retrains = %d, uninterrupted = %d",
			recovered.Retrains(), uninterrupted.Retrains())
	}
}

// TestDurableStoreSingleOwner: the directory lock makes a second live
// sniffer on the same store fail fast instead of interleaving two WALs.
func TestDurableStoreSingleOwner(t *testing.T) {
	b := fstest.New()
	cfg := durableConfig(b, 1)
	sim := testSimulation(t)
	sn, err := NewSniffer(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	if _, err := NewSniffer(testSimulation(t), cfg); !errors.Is(err, store.ErrLocked) {
		t.Fatalf("second owner error = %v, want ErrLocked", err)
	}
}

// TestDurableMetaMismatch: reopening a store under a different
// configuration fingerprint (here, another seed) must refuse rather than
// replay history that means something else.
func TestDurableMetaMismatch(t *testing.T) {
	b := fstest.New()
	cfg := durableConfig(b, 1)
	sim := testSimulation(t)
	sn, err := NewSniffer(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunHours(1)
	sn.Close()

	cfg2 := cfg
	cfg2.Seed = 2
	if _, err := NewSniffer(testSimulation(t), cfg2); !errors.Is(err, store.ErrMetaMismatch) {
		t.Fatalf("mismatched reopen error = %v, want ErrMetaMismatch", err)
	}
}

// TestDurabilityRequiresStreaming: durability depends on the stage graph's
// ordering guarantees; enabling it on the batch path is a config error.
func TestDurabilityRequiresStreaming(t *testing.T) {
	_, err := NewSniffer(testSimulation(t), SnifferConfig{
		Specs:      RandomSpec(8),
		Seed:       1,
		Durability: DurabilityConfig{Backend: fstest.New()},
	})
	if err == nil {
		t.Fatal("durability without streaming accepted")
	}
}

// checkpointSchedule runs cfg (durable) hour by hour and returns the
// sequence the newest checkpoint covers after each hour.
func checkpointSchedule(t *testing.T, cfg SnifferConfig, hours int) []uint64 {
	t.Helper()
	sim := testSimulation(t)
	sn, err := NewSniffer(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	covered := make([]uint64, hours)
	for h := range covered {
		sim.RunHours(1)
		covered[h] = sn.DurableStore().Status().LastCheckpointSeq
	}
	return covered
}

// TestCheckpointScheduleDeterministic: the compaction schedule is a pure
// function of the stream — every executor at every worker count cuts its
// checkpoints at the same hours and sequences — and it is geometric: each
// cut covers at least twice the history of the one before.
func TestCheckpointScheduleDeterministic(t *testing.T) {
	var want []uint64
	for _, workers := range []string{"1", "2", "8"} {
		for _, topo := range topologies {
			if topo.name == "inproc×4" || topo.name == "proc×1" {
				continue
			}
			t.Run(fmt.Sprintf("workers=%s/%s", workers, topo.name), func(t *testing.T) {
				t.Setenv(parallel.EnvWorkers, workers)
				cfg := shardGoldenConfig(topo.shards, topo.mode)
				cfg.Durability = DurabilityConfig{Backend: fstest.New(), SyncEvery: 4}
				got := checkpointSchedule(t, cfg, 9)
				if want == nil {
					want = got
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("checkpoint schedule %v, want %v", got, want)
				}
			})
		}
	}
	var cuts []uint64
	for h, seq := range want {
		if h == 0 || seq != want[h-1] {
			cuts = append(cuts, seq)
		}
	}
	if len(cuts) < 3 || cuts[0] != 0 {
		t.Fatalf("covered sequence by hour %v: want at least two cuts in nine hours", want)
	}
	for i := 2; i < len(cuts); i++ {
		if cuts[i] < 2*cuts[i-1] {
			t.Fatalf("cut at seq %d follows one at %d: want geometric growth (covered by hour %v)",
				cuts[i], cuts[i-1], want)
		}
	}
}

// TestCheckpointScheduleBounds runs a day: the number of checkpoints stays
// logarithmic in the captures, and a reopen replays no more than the
// history the newest checkpoint covers plus one hour — the recovery bound
// DESIGN.md §14 states.
func TestCheckpointScheduleBounds(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "2")
	b := fstest.New()
	cfg := durableConfig(b, 4)
	cfg.Metrics = NewMetricsRegistry()
	sim := testSimulation(t)
	sn, err := NewSniffer(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var captures, maxHour int
	for h := 0; h < 24; h++ {
		sim.RunHours(1)
		sn.drainPipeline()
		n := len(sn.Monitor().Captures())
		maxHour = max(maxHour, n-captures)
		captures = n
	}
	sn.Close()
	fams := cfg.Metrics.Snapshot()
	ckpts := counterTotal(fams, "ph_store_checkpoints_total", nil)
	if limit := math.Floor(math.Log2(float64(captures))) + 2; ckpts == 0 || ckpts > limit {
		t.Fatalf("%v checkpoints over %d captures, want 1..%v", ckpts, captures, limit)
	}

	sn2, err := NewSniffer(testSimulation(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sn2.Close()
	rec := sn2.Recovery()
	if rec.Checkpoint == nil {
		t.Fatal("a day-long run left no checkpoint")
	}
	if got, bound := len(rec.Records), int(rec.Checkpoint.Seq)+maxHour; got > bound {
		t.Fatalf("reopen replays %d records past checkpoint seq %d, over the bound %d (largest hour: %d captures)",
			got, rec.Checkpoint.Seq, bound, maxHour)
	}
	if restored := len(sn2.Monitor().Captures()); restored != captures {
		t.Fatalf("reopen restored %d captures, the run made %d", restored, captures)
	}
}
