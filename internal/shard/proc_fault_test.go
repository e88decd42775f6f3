package shard

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// counterValue reads one labeled counter's value out of a registry
// snapshot, 0 when the series does not exist.
func counterValue(reg *metrics.Registry, name, shard string) float64 {
	for _, fam := range reg.Snapshot() {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Samples {
			for _, l := range s.Labels {
				if l.Name == "shard" && l.Value == shard {
					return s.Value
				}
			}
		}
	}
	return 0
}

// faultKind is one injected failure mode for a shard's extract call.
type faultKind int

const (
	faultNone     faultKind = iota
	faultTruncate           // worker died mid-response: stream cut short
	faultDie                // worker died before responding: transport error
	faultHang               // worker accepted the request and never answers
)

// memTransport is the fstest-style fault double for the proc Transport: it
// drives real WorkerCores in-memory and injects one-shot failures. Restart
// replaces the core with a fresh one — losing the shard-local
// first-appearance set, exactly as a respawned worker process would. Every
// shard goroutine calls it, hence the mutex.
type memTransport struct {
	mu       sync.Mutex
	cores    []*WorkerCore
	faults   map[int]faultKind // shard → next Extract call's fault
	restarts int
}

func newMemTransport(shards int) *memTransport {
	mt := &memTransport{faults: make(map[int]faultKind)}
	for s := 0; s < shards; s++ {
		mt.cores = append(mt.cores, NewWorkerCore(label.DefaultConfig()))
	}
	return mt
}

func (mt *memTransport) Extract(ctx context.Context, s int, body []byte) ([]byte, error) {
	mt.mu.Lock()
	core, fault := mt.cores[s], mt.faults[s]
	delete(mt.faults, s)
	mt.mu.Unlock()
	if fault == faultHang {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	resp, err := core.Extract(body)
	if err != nil {
		return nil, err
	}
	switch fault {
	case faultTruncate:
		// Cut mid-result: the worker wrote part of its response and
		// died before the telemetry that closes it.
		return resp[:len(resp)*2/3], nil
	case faultDie:
		return nil, errors.New("connection reset by peer")
	}
	return resp, nil
}

func (mt *memTransport) Restart(s int) error {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	mt.restarts++
	mt.cores[s] = NewWorkerCore(label.DefaultConfig())
	return nil
}

func (mt *memTransport) Close() error { return nil }

// procRun is what one proc-mode fanout run delivered to its coordinator.
type procRun struct {
	ingested int
	items    []Item // in completion (= ingest) order
	drainErr error
	closeErr error
	health   []metrics.ShardHealth // after Close
}

// runProcFanout drives a fresh world's traffic through a proc-mode Fanout
// on the given transport, draining after every hour, and returns every
// completed item in order. The coordinator's counters go to reg; watch,
// when set, sees the fanout before the first capture is ingested.
func runProcFanout(t testing.TB, tr Transport, shards, hours int, reg *metrics.Registry, watch func(*Fanout)) procRun {
	t.Helper()
	w, e, m := testWorld(t)
	var run procRun
	f := NewFanout(FanoutConfig{
		Shards:   shards,
		Workers:  tr,
		Pipeline: pipelineConfig(reg),
		Monitor:  m,
		Prepper:  testPrepper(),
		Complete: func(it *Item) { run.items = append(run.items, *it) },
		Label:    func([]Item) {},
		Observe:  func(*Item) {},
	})
	if watch != nil {
		watch(f)
	}
	e.OnHourStart(func(_ int, now time.Time) { m.Rotate(now, time.Hour) })
	cancel := e.Subscribe(func(tw *socialnet.Tweet) {
		if c := m.Match(tw, w.Account); c != nil {
			run.ingested++
			f.Ingest(c)
		}
	})
	defer cancel()
	for h := 0; h < hours; h++ {
		e.RunHours(1)
		if err := f.Drain(); err != nil && run.drainErr == nil {
			run.drainErr = err
		}
	}
	run.closeErr = f.Close()
	run.health = f.ShardHealth()
	return run
}

// assertSameCaptures verifies the faulty run neither dropped nor
// duplicated nor reordered any capture relative to the clean run, and
// extracted every one of them identically. A respawned worker may
// re-ship a profile prep its predecessor had deduplicated, so a prep may
// be present on one side only — but where both sides have one, the
// contents must agree.
func assertSameCaptures(t *testing.T, clean, faulty procRun) {
	t.Helper()
	if len(clean.items) == 0 || len(clean.items) != clean.ingested {
		t.Fatalf("clean run completed %d of %d captures", len(clean.items), clean.ingested)
	}
	if len(faulty.items) != len(clean.items) {
		t.Fatalf("faulty run completed %d captures, clean %d", len(faulty.items), len(clean.items))
	}
	for i := range clean.items {
		c, f := &clean.items[i], &faulty.items[i]
		if c.Seq != uint64(i+1) || f.Seq != c.Seq || f.C.Tweet.ID != c.C.Tweet.ID {
			t.Fatalf("capture %d: clean seq %d tweet %d, faulty seq %d tweet %d",
				i, c.Seq, c.C.Tweet.ID, f.Seq, f.C.Tweet.ID)
		}
		if f.Vec != c.Vec || !reflect.DeepEqual(f.TweetPrep, c.TweetPrep) || !reflect.DeepEqual(f.C.Groups, c.C.Groups) {
			t.Fatalf("capture %d: extraction diverged", i)
		}
		if c.UserPrep != nil && f.UserPrep != nil && !reflect.DeepEqual(c.UserPrep, f.UserPrep) {
			t.Fatalf("capture %d: prep content diverged", i)
		}
	}
}

// faultedRun runs clean and faulty twins and checks the contract every
// recoverable fault shares: the run finishes without error, the captures
// equal the clean run's, and each faulted shard shows exactly one restart
// and one retry (1-based shard labels) while the healthy ones show none.
// Every shard ends healthy; a faulted one carries its restart and the
// attempt error in its health row.
func faultedRun(t *testing.T, shards, hours int, faults map[int]faultKind) {
	t.Helper()
	clean := runProcFanout(t, newMemTransport(shards), shards, hours, metrics.NewRegistry(), nil)

	mt := newMemTransport(shards)
	for s, k := range faults {
		mt.faults[s] = k
	}
	reg := metrics.NewRegistry()
	faulty := runProcFanout(t, mt, shards, hours, reg, nil)
	if faulty.drainErr != nil || faulty.closeErr != nil {
		t.Fatalf("recoverable fault surfaced: drain %v, close %v", faulty.drainErr, faulty.closeErr)
	}
	if mt.restarts != len(faults) {
		t.Fatalf("expected %d worker restarts, got %d", len(faults), mt.restarts)
	}
	for s := 0; s < shards; s++ {
		lv, want := strconv.Itoa(s+1), 0.0
		if _, ok := faults[s]; ok {
			want = 1
		}
		for _, name := range []string{"ph_shard_worker_restarts_total", "ph_shard_batch_retries_total"} {
			if got := counterValue(reg, name, lv); got != want {
				t.Fatalf("%s{shard=%s} = %v, want %v", name, lv, got, want)
			}
		}
		h := faulty.health[s]
		if h.Shard != lv || h.Status != statusOK || h.Restarts != int(want) || (h.LastError != "") != (want == 1) {
			t.Fatalf("shard %s health %+v after %v restarts", lv, h, want)
		}
	}
	assertSameCaptures(t, clean, faulty)
}

// TestProcRetryAfterTruncatedStream kills a shard mid-response (a torn
// result, no telemetry): the shard must detect the truncation, restart
// the worker, re-post the identical batch, and deliver a result
// indistinguishable from the clean run.
func TestProcRetryAfterTruncatedStream(t *testing.T) {
	faultedRun(t, 4, 3, map[int]faultKind{1: faultTruncate})
}

// TestProcRetryAfterWorkerDeath kills a shard before it responds at all
// (transport error): same retry contract.
func TestProcRetryAfterWorkerDeath(t *testing.T) {
	faultedRun(t, 2, 3, map[int]faultKind{0: faultDie})
}

// TestProcRetryAfterWorkerHang is the failure restart-on-EOF cannot see: a
// worker that accepts the POST and never answers. The per-batch deadline
// turns it into a failed attempt — restart, retry, same captures — and the
// run's wall time is bounded by that one deadline, not by anyone's patience.
func TestProcRetryAfterWorkerHang(t *testing.T) {
	start := time.Now()
	faultedRun(t, 2, 2, map[int]faultKind{0: faultHang})
	if elapsed, bound := time.Since(start), batchDeadline+20*time.Second; elapsed > bound {
		t.Fatalf("hung worker held the run for %v (bound %v)", elapsed, bound)
	}
}

// TestProcRepeatedFaultsEveryShard gives every shard one fault each; all
// must recover within the retry budget.
func TestProcRepeatedFaultsEveryShard(t *testing.T) {
	faultedRun(t, 4, 2, map[int]faultKind{0: faultTruncate, 1: faultDie, 2: faultTruncate, 3: faultDie})
}

// unrecoverableTransport fails a shard on every attempt.
type unrecoverableTransport struct {
	*memTransport
	dead int
}

func (ut *unrecoverableTransport) Extract(ctx context.Context, s int, body []byte) ([]byte, error) {
	if s == ut.dead {
		return nil, errors.New("no route to host")
	}
	return ut.memTransport.Extract(ctx, s, body)
}

// TestProcExhaustedRetriesSurface verifies a permanently dead shard turns
// into a Drain (and Close) error instead of silently dropping its captures
// — and that both still return: the dead shard's batches are extracted
// in-process, so the merge stage is never left waiting on their sequence
// numbers.
func TestProcExhaustedRetriesSurface(t *testing.T) {
	// A merge-stage deadlock would hang right here, in Drain or Close.
	run := runProcFanout(t, &unrecoverableTransport{memTransport: newMemTransport(2), dead: 1},
		2, 1, metrics.NewRegistry(), nil)
	if run.drainErr == nil || run.closeErr == nil {
		t.Fatalf("permanently dead shard did not surface: drain %v, close %v", run.drainErr, run.closeErr)
	}
	if run.ingested == 0 || len(run.items) != run.ingested {
		t.Fatalf("completed %d of %d captures", len(run.items), run.ingested)
	}
	for i, it := range run.items {
		if it.Seq != uint64(i+1) {
			t.Fatalf("capture %d completed with seq %d", i, it.Seq)
		}
	}
	if h := run.health; h[0].Status != statusOK || h[1].Status != statusFailed || h[1].LastError == "" {
		t.Fatalf("health after a dead shard: %+v", h)
	}
}

// matchedBatch runs traffic until n captures matched and returns them as
// an extract batch.
func matchedBatch(t testing.TB, n int) ([]Item, *core.Monitor) {
	t.Helper()
	w, e, m := testWorld(t)
	var batch []Item
	e.OnHourStart(func(_ int, now time.Time) { m.Rotate(now, time.Hour) })
	cancel := e.Subscribe(func(tw *socialnet.Tweet) {
		if len(batch) < n {
			if c := m.Match(tw, w.Account); c != nil {
				batch = append(batch, Item{Seq: uint64(len(batch) + 1), C: c})
			}
		}
	})
	defer cancel()
	for h := 0; h < 8 && len(batch) < n; h++ {
		e.RunHours(1)
	}
	if len(batch) < n {
		t.Fatalf("matched %d captures, want %d", len(batch), n)
	}
	return batch, m
}

// TestWorkerCoreExtractMatchesInProcess pins the wire end to end: what a
// worker computes from the framed snapshots is bit-identical, capture by
// capture and in request order, to what an in-process shard computes from
// the capture itself.
func TestWorkerCoreExtractMatchesInProcess(t *testing.T) {
	batch, m := matchedBatch(t, 64)
	resp, err := NewWorkerCore(label.DefaultConfig()).Extract(appendRequest(nil, batch))
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := readResults(resp, len(batch))
	if err != nil {
		t.Fatal(err)
	}
	prep, preps := testPrepper(), 0
	for i, it := range batch {
		want := m.StatelessVector(it.C)
		if results[i].Vec != want {
			t.Fatalf("capture %d: vector diverged across the wire", i)
		}
		if !reflect.DeepEqual(results[i].TweetPrep, prep.PrepTweet(it.C.Tweet)) {
			t.Fatalf("capture %d: tweet prep diverged across the wire", i)
		}
		if up := results[i].UserPrep; up != nil {
			preps++
			if !reflect.DeepEqual(*up, prep.PrepUser(it.C.SenderSnapshot())) {
				t.Fatalf("capture %d: user prep diverged across the wire", i)
			}
		}
	}
	if preps == 0 {
		t.Fatal("no first-appearance profile prep shipped")
	}
}
