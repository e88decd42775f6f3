package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/features"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// fakeCapture builds a synthetic capture with recognizable field values:
// a live sender and its match-time snapshot, and on even i a receiver
// snapshot (a mention capture).
func fakeCapture(i int) *Capture {
	var vec features.Vector
	vec[0] = float64(i)
	vec[features.NumFeatures-1] = float64(-i)
	sender := &socialnet.Account{
		ID:          socialnet.AccountID(1000 + i),
		ScreenName:  "sender",
		Description: "desc",
		CreatedAt:   time.Unix(int64(i), 0).UTC(),
	}
	c := &Capture{
		Tweet: &socialnet.Tweet{
			ID:        socialnet.TweetID(i),
			AuthorID:  sender.ID,
			CreatedAt: time.Unix(int64(i)*60, 0).UTC(),
			Text:      "hello world",
			Mentions:  []socialnet.AccountID{7},
		},
		Sender: sender,
		Groups: []int{0, 2},
		Vector: vec,
		Spam:   i%3 == 0,
		Source: "twitter",
	}
	snap := *sender
	snap.StatusesCount = i
	snap.SetLastPostAt(time.Unix(int64(i)*30, 0).UTC())
	c.senderSnap = &snap
	if i%2 == 0 {
		c.receiverSnap = &socialnet.Account{ID: 7, ScreenName: "node", FollowersCount: i}
	}
	return c
}

// missLookup resolves no account: a world that has not spawned the
// captures' authors yet.
func missLookup(socialnet.AccountID) *socialnet.Account { return nil }

// TestCaptureStoreUnboundedKeepsAll verifies cap 0 behaves like the seed's
// unbounded slice.
func TestCaptureStoreUnboundedKeepsAll(t *testing.T) {
	s := NewCaptureStore(0, metrics.NewRegistry())
	for i := 0; i < 100; i++ {
		if ev := s.Append(fakeCapture(i)); ev != nil {
			t.Fatalf("unbounded store evicted capture %d", i)
		}
	}
	if s.Len() != 100 || s.Evicted() != 0 {
		t.Fatalf("len=%d evicted=%d, want 100/0", s.Len(), s.Evicted())
	}
}

// TestCaptureStoreBoundedUnderLongStream streams 10× the cap through a
// bounded store and requires: memory stays at the cap, eviction is
// oldest-first, and the retained window is exactly the newest cap items.
func TestCaptureStoreBoundedUnderLongStream(t *testing.T) {
	const cap = 64
	const n = 10 * cap
	reg := metrics.NewRegistry()
	s := NewCaptureStore(cap, reg)
	for i := 0; i < n; i++ {
		ev := s.Append(fakeCapture(i))
		if i < cap {
			if ev != nil {
				t.Fatalf("eviction before cap at %d", i)
			}
			continue
		}
		if ev == nil {
			t.Fatalf("no eviction past cap at %d", i)
		}
		if got := int(ev.Tweet.ID); got != i-cap {
			t.Fatalf("evicted tweet %d at step %d, want oldest %d", got, i, i-cap)
		}
		if s.Len() != cap {
			t.Fatalf("len %d exceeded cap at step %d", s.Len(), i)
		}
	}
	if s.Evicted() != n-cap {
		t.Fatalf("evicted = %d, want %d", s.Evicted(), n-cap)
	}
	snap := s.Snapshot()
	if len(snap) != cap {
		t.Fatalf("snapshot len = %d, want %d", len(snap), cap)
	}
	for i, c := range snap {
		if want := socialnet.TweetID(n - cap + i); c.Tweet.ID != want {
			t.Fatalf("snapshot[%d] tweet %d, want %d (not oldest-first)", i, c.Tweet.ID, want)
		}
	}
	// The instrumentation agrees with the store.
	byName := map[string]float64{}
	for _, fam := range reg.Snapshot() {
		for _, sm := range fam.Samples {
			byName[fam.Name] = sm.Value
		}
	}
	if byName["ph_capture_store_size"] != cap {
		t.Fatalf("ph_capture_store_size = %v, want %d", byName["ph_capture_store_size"], cap)
	}
	if byName["ph_capture_store_evicted_total"] != n-cap {
		t.Fatalf("ph_capture_store_evicted_total = %v, want %d",
			byName["ph_capture_store_evicted_total"], n-cap)
	}
}

// TestCaptureStoreSnapshotIsCopy mutates the returned slice and checks the
// store is unaffected.
func TestCaptureStoreSnapshotIsCopy(t *testing.T) {
	s := NewCaptureStore(0, metrics.NewRegistry())
	for i := 0; i < 10; i++ {
		s.Append(fakeCapture(i))
	}
	snap := s.Snapshot()
	for i := range snap {
		snap[i] = nil
	}
	for i, c := range s.Snapshot() {
		if c == nil || c.Tweet.ID != socialnet.TweetID(i) {
			t.Fatalf("store corrupted through snapshot at %d", i)
		}
	}
}

// TestCaptureStoreSpillRoundTrip spills a bounded store to a buffer and
// restores it into a fresh store, requiring the retained window, order,
// vectors, and eviction count to survive (traces are dropped by contract).
// A restored capture keeps its match-time snapshots field for field, and
// its live Sender is whatever the lookup resolves: nil for the authors the
// restored world does not hold.
func TestCaptureStoreSpillRoundTrip(t *testing.T) {
	src := NewCaptureStore(16, metrics.NewRegistry())
	for i := 0; i < 40; i++ {
		src.Append(fakeCapture(i))
	}
	live := map[socialnet.AccountID]*socialnet.Account{}
	for i := 24; i < 40; i += 3 {
		live[socialnet.AccountID(1000+i)] = &socialnet.Account{ID: socialnet.AccountID(1000 + i), ScreenName: "live"}
	}
	lookup := func(id socialnet.AccountID) *socialnet.Account { return live[id] }
	dst := NewCaptureStore(16, metrics.NewRegistry())
	if err := dst.RestoreSnapshot(src.EncodeSnapshot(), lookup); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != src.Len() || dst.Evicted() != src.Evicted() {
		t.Fatalf("restored len/evicted = %d/%d, want %d/%d",
			dst.Len(), dst.Evicted(), src.Len(), src.Evicted())
	}
	want := src.Snapshot()
	got := dst.Snapshot()
	for i := range want {
		w, g := want[i], got[i]
		if !reflect.DeepEqual(g.Tweet, w.Tweet) || !reflect.DeepEqual(g.Groups, w.Groups) {
			t.Fatalf("capture %d tweet or groups mismatch: %+v vs %+v", i, g.Tweet, w.Tweet)
		}
		if !reflect.DeepEqual(g.SenderSnapshot(), w.SenderSnapshot()) ||
			!reflect.DeepEqual(g.ReceiverSnapshot(), w.ReceiverSnapshot()) {
			t.Fatalf("capture %d snapshots mismatch: %+v/%+v vs %+v/%+v", i,
				g.SenderSnapshot(), g.ReceiverSnapshot(), w.SenderSnapshot(), w.ReceiverSnapshot())
		}
		if g.Sender != lookup(g.Tweet.AuthorID) {
			t.Fatalf("capture %d sender %p, want the lookup's %p", i, g.Sender, lookup(g.Tweet.AuthorID))
		}
		if g.Vector != w.Vector {
			t.Fatalf("capture %d vector mismatch", i)
		}
		if g.Spam != w.Spam || g.Source != w.Source {
			t.Fatalf("capture %d spam/source %t/%q, want %t/%q", i, g.Spam, g.Source, w.Spam, w.Source)
		}
	}
}

// TestCaptureStoreRestoreReEvicts restores a wide snapshot into a narrower
// store and requires deterministic oldest-first re-eviction.
func TestCaptureStoreRestoreReEvicts(t *testing.T) {
	src := NewCaptureStore(0, metrics.NewRegistry())
	for i := 0; i < 30; i++ {
		src.Append(fakeCapture(i))
	}
	dst := NewCaptureStore(8, metrics.NewRegistry())
	if err := dst.RestoreSnapshot(src.EncodeSnapshot(), missLookup); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 8 {
		t.Fatalf("restored len = %d, want 8", dst.Len())
	}
	for i, c := range dst.Snapshot() {
		if want := socialnet.TweetID(22 + i); c.Tweet.ID != want {
			t.Fatalf("restored[%d] = %d, want %d", i, c.Tweet.ID, want)
		}
	}
}

// TestCaptureStoreReadGarbage verifies a corrupt spill errors instead of
// panicking or silently clearing into a half-restored state being used.
func TestCaptureStoreReadGarbage(t *testing.T) {
	s := NewCaptureStore(4, metrics.NewRegistry())
	if err := s.RestoreSnapshot([]byte("not a snapshot section"), missLookup); err == nil {
		t.Fatal("corrupt snapshot restored without error")
	}
}

// TestMonitorCapturesReturnsCopy is the aliasing fix's regression test:
// callers mutating the slice returned by Captures() must not corrupt the
// monitor's retained state.
func TestMonitorCapturesReturnsCopy(t *testing.T) {
	w := testWorld(t)
	e := socialnet.NewEngine(w)
	m := NewMonitor(MonitorConfig{
		Specs:   StandardSpecs(1),
		Seed:    1,
		Metrics: metrics.NewRegistry(),
	}, &LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
	detach := Attach(m, e)
	defer detach()
	e.RunHours(2)

	before := m.Captures()
	if len(before) == 0 {
		t.Fatal("no captures after 2 hours")
	}
	wantIDs := make([]socialnet.TweetID, len(before))
	for i, c := range before {
		wantIDs[i] = c.Tweet.ID
	}
	// Vandalize the returned slice every way a caller could.
	for i := range before {
		before[i] = nil
	}
	before = append(before[:0], (*Capture)(nil))
	_ = before

	after := m.Captures()
	if len(after) != len(wantIDs) {
		t.Fatalf("monitor lost captures: %d vs %d", len(after), len(wantIDs))
	}
	for i, c := range after {
		if c == nil {
			t.Fatalf("capture %d nilled through the returned slice", i)
		}
		if c.Tweet.ID != wantIDs[i] {
			t.Fatalf("capture %d reordered: %d vs %d", i, c.Tweet.ID, wantIDs[i])
		}
	}
}
