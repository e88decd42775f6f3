package shard

import (
	"math/rand"
	"os"
	"slices"
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

// TestReorderReleasesInStreamOrder feeds the merge stage's reorder
// batches with gaps, out of order and across batch boundaries: each call
// must release exactly the run the stream is waiting on, in order, and
// complete each item once.
func TestReorderReleasesInStreamOrder(t *testing.T) {
	ro := &reorder{next: 1}
	var completed []uint64
	complete := func(it *Item) { completed = append(completed, it.Seq) }
	release := func(seqs ...uint64) []uint64 {
		batch := make([]Item, len(seqs))
		for i, s := range seqs {
			batch[i] = Item{Seq: s}
		}
		var out []uint64
		for _, it := range ro.release(batch, complete) {
			out = append(out, it.Seq)
		}
		return out
	}
	for _, step := range []struct{ in, out []uint64 }{
		{[]uint64{3, 2}, nil},
		{[]uint64{5}, nil},
		{[]uint64{1, 7}, []uint64{1, 2, 3}},
		{[]uint64{4, 6}, []uint64{4, 5, 6, 7}},
		{[]uint64{8, 9}, []uint64{8, 9}},
	} {
		if got := release(step.in...); !slices.Equal(got, step.out) {
			t.Fatalf("release %v = %v, want %v", step.in, got, step.out)
		}
	}
	if want := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9}; !slices.Equal(completed, want) {
		t.Fatalf("completed %v, want %v", completed, want)
	}
	if len(ro.window) != 0 {
		t.Fatalf("window holds %d slots after the stream caught up", len(ro.window))
	}
}

// TestReorderAllocs: once its buffers have grown, the reorder allocates
// nothing for items that arrive in order, nor for a batch that arrives
// reversed.
func TestReorderAllocs(t *testing.T) {
	ro := &reorder{next: 1}
	batch := make([]Item, 64)
	complete := func(*Item) {}
	fill := func(reversed bool) {
		for i := range batch {
			batch[i] = Item{Seq: ro.next + uint64(i)}
		}
		if reversed {
			slices.Reverse(batch)
		}
	}
	fill(true)
	ro.release(batch, complete) // grows the window and the output
	for _, reversed := range []bool{false, true} {
		if got := testing.AllocsPerRun(100, func() {
			fill(reversed)
			if out := ro.release(batch, complete); len(out) != len(batch) {
				t.Fatalf("released %d of %d", len(out), len(batch))
			}
		}); got != 0 {
			t.Errorf("reversed=%v: a batch allocates %v times, want 0", reversed, got)
		}
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
