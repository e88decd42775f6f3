package shard

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// testPrepper builds the default-config prepper the sniffer uses.
func testPrepper() *label.Prepper { return label.NewPrepper(label.DefaultConfig()) }

// TestMain lets tests that spawn real worker subprocesses re-execute this
// test binary as a worker.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

func TestRingDeterministicAndComplete(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		a, b := NewRing(n), NewRing(n)
		counts := make([]int, n)
		for id := socialnet.AccountID(1); id <= 10_000; id++ {
			oa, ob := a.Owner(id), b.Owner(id)
			if oa != ob {
				t.Fatalf("n=%d id=%d: owners disagree (%d vs %d)", n, id, oa, ob)
			}
			if oa < 0 || oa >= n {
				t.Fatalf("n=%d id=%d: owner %d out of range", n, id, oa)
			}
			counts[oa]++
		}
		for s, c := range counts {
			if n > 1 && c == 0 {
				t.Fatalf("n=%d: shard %d owns no ids", n, s)
			}
		}
	}
}

func TestRingBalance(t *testing.T) {
	const ids = 10_000
	r := NewRing(8)
	counts := make([]int, 8)
	for id := socialnet.AccountID(1); id <= ids; id++ {
		counts[r.Owner(id)]++
	}
	for s, c := range counts {
		// With 64 vnodes per shard the expected spread stays well within
		// a factor of two of the mean.
		if c < ids/8/2 || c > ids/8*2 {
			t.Fatalf("shard %d owns %d of %d ids (mean %d)", s, c, ids, ids/8)
		}
	}
}

// testWorld builds a small simulated world with a rotating monitor, the
// setup every topology test shares.
func testWorld(t testing.TB) (*socialnet.World, *socialnet.Engine, *core.Monitor) {
	return testWorldTraced(t, nil)
}

// testWorldTraced is testWorld with the monitor's captures traced.
func testWorldTraced(t testing.TB, tracer *trace.Tracer) (*socialnet.World, *socialnet.Engine, *core.Monitor) {
	t.Helper()
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 1200
	cfg.OrganicTweetsPerHour = 300
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := socialnet.NewEngine(w)
	m := core.NewMonitor(core.MonitorConfig{
		Specs:      core.RandomSpec(80),
		ActiveOnly: true,
		Seed:       7,
		Tracer:     tracer,
	}, &core.LocalScreener{World: w, Rng: rand.New(rand.NewSource(8))})
	return w, e, m
}

// TestFanoutPreservesStreamOrder runs real traffic through the in-process
// sharded topology and asserts the coordinator sees every capture exactly
// once, in ingest order, with the stateless work done — the merge
// contract the determinism pin rests on. Run under -race this also
// exercises the multi-producer merge queue.
func TestFanoutPreservesStreamOrder(t *testing.T) {
	w, e, m := testWorld(t)

	var completed []uint64
	var labeled int
	f := NewFanout(FanoutConfig{
		Shards:  4,
		Monitor: m,
		Prepper: testPrepper(),
		Complete: func(it *Item) {
			completed = append(completed, it.Seq)
			if it.Vec != m.StatelessVector(it.C) {
				t.Error("stateless vector mismatch")
			}
		},
		Label:   func(items []Item) { labeled += len(items) },
		Observe: func(*Item) {},
	})

	ingested := 0
	e.OnHourStart(func(_ int, now time.Time) { m.Rotate(now, time.Hour) })
	cancel := e.Subscribe(func(tw *socialnet.Tweet) {
		if c := m.Match(tw, w.Account); c != nil {
			ingested++
			f.Ingest(c)
		}
	})
	defer cancel()
	e.RunHours(3)
	f.Drain()
	f.Close()

	if ingested == 0 {
		t.Fatal("no captures ingested")
	}
	if len(completed) != ingested {
		t.Fatalf("completed %d of %d ingested captures", len(completed), ingested)
	}
	for i, seq := range completed {
		if seq != uint64(i+1) {
			t.Fatalf("capture %d completed with seq %d — merge order broken", i, seq)
		}
	}
	if labeled != ingested {
		t.Fatalf("labeled %d of %d captures", labeled, ingested)
	}
}

func TestFanoutCloseIdempotent(t *testing.T) {
	_, _, m := testWorld(t)
	f := NewFanout(FanoutConfig{
		Shards:   2,
		Monitor:  m,
		Prepper:  testPrepper(),
		Complete: func(*Item) {},
		Label:    func([]Item) {},
		Observe:  func(*Item) {},
	})
	f.Close()
	f.Close()
}
