package pseudohoneypot

import (
	"errors"
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
	sim := testSimulation(t)
	sn, err := NewSniffer(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fault != nil {
		fault(b)
	}
	sim.RunHours(crashHour)
	crashSniffer(sn, b, torn)
	assertGolden(t, restartAndFinish(t, cfg, 6))
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
func TestCrashRecoveryEquivalence(t *testing.T) {
	type scenario struct {
		name      string
		syncEvery int
		crashHour int
		torn      int
		fault     func(*fstest.Backend)
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
	all := []scenario{
		{name: "sync-every-append", syncEvery: 1, crashHour: 2},
		{name: "group-commit-torn", syncEvery: 8, crashHour: 3, torn: 5},
		{name: "mid-append-write-fault", syncEvery: 4, crashHour: 3, torn: 3, fault: writeFault},
		{name: "fsync-fault-torn-tail", syncEvery: 4, crashHour: 4, torn: 11, fault: syncFault},
		{name: "late-crash", syncEvery: 1, crashHour: 5},
	}
	perWorker := map[string][]scenario{
		"1": {all[0], all[2]},
		"2": all,
		"8": {all[1], all[2]},
	}
	for _, workers := range []string{"1", "2", "8"} {
		t.Run("workers="+workers, func(t *testing.T) {
			t.Setenv(parallel.EnvWorkers, workers)
			for _, sc := range perWorker[workers] {
				t.Run(sc.name, func(t *testing.T) {
					b := fstest.New()
					crashAndRecover(t, durableConfig(b, sc.syncEvery), b, sc.crashHour, sc.torn, sc.fault)
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
