package shard

import (
	"bytes"
	"errors"
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/pipeline"
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

// faultKind is one injected failure mode for a shard epoch call.
type faultKind int

const (
	faultNone     faultKind = iota
	faultTruncate           // worker died mid-response: stream cut short
	faultDie                // worker died before responding: transport error
)

// memTransport is the fstest-style fault double for the proc Transport: it
// drives real WorkerCores in-memory and injects one-shot failures. Restart
// replaces the core with a fresh one — losing the shard-local
// first-appearance set, exactly as a respawned worker process would.
type memTransport struct {
	cores    []*WorkerCore
	faults   map[int]faultKind // shard → next Epoch call's fault
	restarts int
	calls    int
}

func newMemTransport(shards int) *memTransport {
	mt := &memTransport{faults: make(map[int]faultKind)}
	for s := 0; s < shards; s++ {
		mt.cores = append(mt.cores, NewWorkerCore(s, label.DefaultConfig(), pipeline.Config{}))
	}
	return mt
}

func (mt *memTransport) Epoch(s int, body []byte) ([]byte, error) {
	mt.calls++
	var buf bytes.Buffer
	if err := mt.cores[s].Epoch(bytes.NewReader(body), &buf); err != nil {
		return nil, err
	}
	switch f := mt.faults[s]; f {
	case faultTruncate:
		delete(mt.faults, s)
		// Cut mid-line: the worker streamed part of its response and
		// died before the done trailer.
		return buf.Bytes()[:buf.Len()*2/3], nil
	case faultDie:
		delete(mt.faults, s)
		return nil, errors.New("connection reset by peer")
	}
	return buf.Bytes(), nil
}

func (mt *memTransport) Restart(s int) error {
	mt.restarts++
	mt.cores[s] = NewWorkerCore(s, label.DefaultConfig(), pipeline.Config{})
	return nil
}

func (mt *memTransport) Close() error { return nil }

// runProcEpochs drives a fresh world's traffic through a ProcCoordinator
// on the given transport for hours of epochs, returning every applied
// merged capture in order.
func runProcEpochs(t *testing.T, tr Transport, shards, hours int) []Merged {
	return runProcEpochsReg(t, tr, shards, hours, metrics.NewRegistry())
}

// runProcEpochsReg is runProcEpochs with the coordinator's counters bound
// to a caller-owned registry, so fault tests can assert the restart and
// retry counters the run emitted.
func runProcEpochsReg(t *testing.T, tr Transport, shards, hours int, reg *metrics.Registry) []Merged {
	t.Helper()
	w, e, m := testWorld(t)
	var applied []Merged
	pc, err := NewProcCoordinator(ProcConfig{
		Shards:    shards,
		Lookup:    w.Account,
		Transport: tr,
		Metrics:   reg,
		Apply: func(batch []Merged) error {
			applied = append(applied, batch...)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.OnHourStart(func(_ int, now time.Time) {
		m.Rotate(now, time.Hour)
		pc.BeginEpoch(m.CurrentNodes())
	})
	cancel := e.Subscribe(pc.OnTweet)
	defer cancel()
	for h := 0; h < hours; h++ {
		e.RunHours(1)
		if err := pc.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	return applied
}

// stripPreps normalizes the parts of a merged capture a respawned worker
// may legitimately report differently: a fresh worker re-ships profile
// preps its predecessor had deduplicated. Everything else — tweet
// sequence, groups, vectors, snapshots, tweet preps — must be identical.
func stripPreps(ms []Merged) []Merged {
	out := make([]Merged, len(ms))
	for i, m := range ms {
		m.UserPrep = nil
		out[i] = m
	}
	return out
}

// assertSameCaptures verifies the faulty run neither dropped nor
// duplicated nor reordered any capture relative to the clean run, and
// that every redundant prep a respawned worker shipped is bit-identical
// to the clean run's.
func assertSameCaptures(t *testing.T, clean, faulty []Merged) {
	t.Helper()
	if len(clean) == 0 {
		t.Fatal("clean run captured nothing")
	}
	if len(faulty) != len(clean) {
		t.Fatalf("faulty run applied %d captures, clean %d", len(faulty), len(clean))
	}
	if !reflect.DeepEqual(stripPreps(clean), stripPreps(faulty)) {
		t.Fatal("faulty run's captures differ from clean run")
	}
	for i := range clean {
		if clean[i].UserPrep != nil && faulty[i].UserPrep != nil &&
			!reflect.DeepEqual(clean[i].UserPrep, faulty[i].UserPrep) {
			t.Fatalf("capture %d: prep content diverged", i)
		}
	}
}

// TestProcRetryAfterTruncatedStream kills a shard mid-response (truncated
// NDJSON, no done trailer): the coordinator must detect the truncation,
// restart the worker, re-post the identical epoch, and merge a result
// indistinguishable from the clean run.
func TestProcRetryAfterTruncatedStream(t *testing.T) {
	const shards, hours = 4, 3
	clean := runProcEpochs(t, newMemTransport(shards), shards, hours)

	mt := newMemTransport(shards)
	mt.faults[1] = faultTruncate
	reg := metrics.NewRegistry()
	faulty := runProcEpochsReg(t, mt, shards, hours, reg)

	if mt.restarts != 1 {
		t.Fatalf("expected 1 worker restart, got %d", mt.restarts)
	}
	// The restart-and-retry path must be visible: one restart and one
	// retry counted against the faulted shard (1-based label "2"), none
	// against a healthy shard.
	if got := counterValue(reg, "ph_shard_worker_restarts_total", "2"); got != 1 {
		t.Fatalf("ph_shard_worker_restarts_total{shard=2} = %v, want 1", got)
	}
	if got := counterValue(reg, "ph_shard_epoch_retries_total", "2"); got != 1 {
		t.Fatalf("ph_shard_epoch_retries_total{shard=2} = %v, want 1", got)
	}
	if got := counterValue(reg, "ph_shard_worker_restarts_total", "1"); got != 0 {
		t.Fatalf("ph_shard_worker_restarts_total{shard=1} = %v, want 0", got)
	}
	assertSameCaptures(t, clean, faulty)
}

// TestProcRetryAfterWorkerDeath kills a shard before it responds at all
// (transport error): same retry/re-merge contract.
func TestProcRetryAfterWorkerDeath(t *testing.T) {
	const shards, hours = 2, 3
	clean := runProcEpochs(t, newMemTransport(shards), shards, hours)

	mt := newMemTransport(shards)
	mt.faults[0] = faultDie
	reg := metrics.NewRegistry()
	faulty := runProcEpochsReg(t, mt, shards, hours, reg)

	if mt.restarts != 1 {
		t.Fatalf("expected 1 worker restart, got %d", mt.restarts)
	}
	if got := counterValue(reg, "ph_shard_worker_restarts_total", "1"); got != 1 {
		t.Fatalf("ph_shard_worker_restarts_total{shard=1} = %v, want 1", got)
	}
	if got := counterValue(reg, "ph_shard_epoch_retries_total", "1"); got != 1 {
		t.Fatalf("ph_shard_epoch_retries_total{shard=1} = %v, want 1", got)
	}
	assertSameCaptures(t, clean, faulty)
}

// TestProcRepeatedFaultsEveryShard floods every shard with one fault each;
// all must recover within the retry budget.
func TestProcRepeatedFaultsEveryShard(t *testing.T) {
	const shards, hours = 4, 2
	clean := runProcEpochs(t, newMemTransport(shards), shards, hours)

	mt := newMemTransport(shards)
	for s := 0; s < shards; s++ {
		if s%2 == 0 {
			mt.faults[s] = faultTruncate
		} else {
			mt.faults[s] = faultDie
		}
	}
	reg := metrics.NewRegistry()
	faulty := runProcEpochsReg(t, mt, shards, hours, reg)
	if mt.restarts != shards {
		t.Fatalf("expected %d restarts, got %d", shards, mt.restarts)
	}
	for s := 0; s < shards; s++ {
		lv := strconv.Itoa(s + 1)
		if got := counterValue(reg, "ph_shard_worker_restarts_total", lv); got != 1 {
			t.Fatalf("ph_shard_worker_restarts_total{shard=%s} = %v, want 1", lv, got)
		}
		if got := counterValue(reg, "ph_shard_epoch_retries_total", lv); got != 1 {
			t.Fatalf("ph_shard_epoch_retries_total{shard=%s} = %v, want 1", lv, got)
		}
	}
	assertSameCaptures(t, clean, faulty)
}

// unrecoverableTransport fails a shard on every attempt.
type unrecoverableTransport struct {
	*memTransport
	dead int
}

func (ut *unrecoverableTransport) Epoch(s int, body []byte) ([]byte, error) {
	if s == ut.dead {
		return nil, errors.New("no route to host")
	}
	return ut.memTransport.Epoch(s, body)
}

// TestProcExhaustedRetriesSurface verifies a permanently dead shard turns
// into a Drain error instead of silently dropping its captures.
func TestProcExhaustedRetriesSurface(t *testing.T) {
	w, e, m := testWorld(t)
	pc, err := NewProcCoordinator(ProcConfig{
		Shards:    2,
		Lookup:    w.Account,
		Transport: &unrecoverableTransport{memTransport: newMemTransport(2), dead: 1},
		Apply:     func([]Merged) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	e.OnHourStart(func(_ int, now time.Time) {
		m.Rotate(now, time.Hour)
		pc.BeginEpoch(m.CurrentNodes())
	})
	cancel := e.Subscribe(pc.OnTweet)
	defer cancel()
	e.RunHours(1)
	if err := pc.Drain(); err == nil {
		t.Fatal("permanently dead shard did not surface an error")
	}
}

// TestWorkerCoreEpochOrdersHits sanity-checks the wire layer end to end:
// hits come back ascending in tweet id with a correct done trailer.
func TestWorkerCoreEpochOrdersHits(t *testing.T) {
	w, e, m := testWorld(t)
	mt := newMemTransport(1)
	pc, err := NewProcCoordinator(ProcConfig{
		Shards:    1,
		Lookup:    w.Account,
		Transport: mt,
		Apply:     func([]Merged) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	e.OnHourStart(func(_ int, now time.Time) {
		m.Rotate(now, time.Hour)
		pc.BeginEpoch(m.CurrentNodes())
	})
	cancel := e.Subscribe(pc.OnTweet)
	defer cancel()
	e.RunHours(1)

	resp, err := mt.Epoch(0, pc.bufs[0].Bytes())
	if err != nil {
		t.Fatal(err)
	}
	hits, _, err := parseHits(resp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	var last socialnet.TweetID
	for _, h := range hits {
		if socialnet.TweetID(h.TweetID) <= last {
			t.Fatalf("hit order broken at tweet %d", h.TweetID)
		}
		last = socialnet.TweetID(h.TweetID)
	}
}
