package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// TestCaptureSnapshotRejectsCorruption is the spill-integrity regression
// test: every truncation of a snapshot, trailing bytes after one, and
// foreign bytes must fail loudly and leave the store untouched. A flipped
// byte inside a well-formed snapshot is the checkpoint file CRC's to catch
// (the store package's checksum tests), since the section carries none.
func TestCaptureSnapshotRejectsCorruption(t *testing.T) {
	src := NewCaptureStore(0, metrics.NewRegistry())
	for i := 0; i < 10; i++ {
		src.Append(fakeCapture(i))
	}
	good := src.EncodeSnapshot()

	load := func(data []byte) error {
		dst := NewCaptureStore(0, metrics.NewRegistry())
		dst.Append(fakeCapture(99))
		err := dst.RestoreSnapshot(data, missLookup)
		if err == nil && dst.Len() != 10 {
			t.Fatalf("clean load restored %d captures, want 10", dst.Len())
		}
		if err != nil && (dst.Len() != 1 || dst.Snapshot()[0].Tweet.ID != 99) {
			t.Fatal("failed load changed the store")
		}
		return err
	}

	if err := load(good); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}
	for n := 0; n < len(good); n++ {
		if err := load(good[:n]); err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes accepted", n, len(good))
		}
	}
	if err := load(append(bytes.Clone(good), 0)); err == nil {
		t.Fatal("snapshot with a trailing byte accepted")
	}
	if err := load([]byte("GARBAGE!xxxxyyyyzzzz")); err == nil {
		t.Fatal("foreign bytes accepted")
	}
}

// TestOnlineDetectorSnapshotRoundTrip: window, counters, and the refit
// model survive serialization; subsequent observations follow the
// uninterrupted detector's schedule, and once it has retrained the
// restored detector gives the uninterrupted one's verdicts.
func TestOnlineDetectorSnapshotRoundTrip(t *testing.T) {
	for _, name := range []ClassifierName{ClassifierDT, ClassifierRF, ClassifierEGB} {
		t.Run(string(name), func(t *testing.T) { testOnlineSnapshotRoundTrip(t, name) })
	}
}

func testOnlineSnapshotRoundTrip(t *testing.T, name ClassifierName) {
	rng := rand.New(rand.NewSource(3))
	online, err := NewOnlineDetector(name, 100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 55; i++ {
		c, label := driftCapture(rng, rng.Float64() < 0.4, 0)
		if err := online.Observe(c, label); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := NewOnlineDetector(name, 100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(online.EncodeSnapshot()); err != nil {
		t.Fatal(err)
	}
	if restored.Retrains() != online.Retrains() {
		t.Fatalf("restored retrains = %d, want %d", restored.Retrains(), online.Retrains())
	}
	if restored.WindowSize() != online.WindowSize() {
		t.Fatalf("restored window = %d, want %d", restored.WindowSize(), online.WindowSize())
	}
	// The recovery refit produced a live model.
	c, _ := driftCapture(rng, true, 0)
	restored.Classify(c)
	// Subsequent retrains run on the preserved schedule and seed sequence.
	rngA, rngB := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		ca, la := driftCapture(rngA, rngA.Float64() < 0.4, 0)
		cb, lb := driftCapture(rngB, rngB.Float64() < 0.4, 0)
		if err := online.Observe(ca, la); err != nil {
			t.Fatal(err)
		}
		if err := restored.Observe(cb, lb); err != nil {
			t.Fatal(err)
		}
	}
	if restored.Retrains() != online.Retrains() {
		t.Fatalf("post-restore retrain schedule diverged: %d vs %d",
			restored.Retrains(), online.Retrains())
	}
	// Both have retrained on the same window with the same seed since the
	// restore, so they have reconverged: every verdict agrees, also on
	// probes between the classes.
	probes := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		regime := i % 2
		p := driftProbe(probes, regime)
		if got, want := restored.Classify(p), online.Classify(p); got != want {
			t.Fatalf("probe %d (regime %d): restored verdict %v, uninterrupted %v", i, regime, got, want)
		}
	}

	if err := restored.RestoreSnapshot([]byte("junk")); err == nil {
		t.Fatal("garbage online snapshot accepted")
	}
}

// newSnapshotMonitor builds a monitor with two selector groups for the
// group-stats and adoption tests.
func newSnapshotMonitor(t *testing.T) *Monitor {
	t.Helper()
	specs := []SelectorSpec{
		{Selector: socialnet.Selector{Attr: socialnet.AttrFollowers, Value: 100}, Nodes: 2},
		{Selector: socialnet.Selector{Attr: socialnet.AttrFriends, Value: 50}, Nodes: 2},
	}
	return NewMonitor(MonitorConfig{Specs: specs, Seed: 1, Metrics: metrics.NewRegistry()}, nil)
}

// TestGroupStatsSnapshotRoundTrip: replay-dependent counters transfer to a
// fresh monitor with the same specs; mismatched shapes are rejected.
func TestGroupStatsSnapshotRoundTrip(t *testing.T) {
	m := newSnapshotMonitor(t)
	g := m.Groups()[0]
	g.Tweets = 4
	g.Senders[11] = struct{}{}
	g.Senders[12] = struct{}{}
	g.Spams = 2
	g.Spammers[11] = struct{}{}

	m2 := newSnapshotMonitor(t)
	if err := m2.RestoreGroupStats(m.EncodeGroupStats()); err != nil {
		t.Fatal(err)
	}
	for gi := range m.Groups() {
		a, b := m.Groups()[gi], m2.Groups()[gi]
		if a.Tweets != b.Tweets || a.Spams != b.Spams ||
			!reflect.DeepEqual(a.Senders, b.Senders) ||
			!reflect.DeepEqual(a.Spammers, b.Spammers) {
			t.Fatalf("group %d diverged after restore", gi)
		}
	}
	if err := m2.RestoreGroupStats(encodeGroupStats(m.SnapshotGroupStats()[:1])); err == nil {
		t.Fatal("short snapshot accepted")
	}
	negative := encodeGroupStats([]GroupStatsSnapshot{{Tweets: -1}, {}})
	if err := m2.RestoreGroupStats(negative); err == nil {
		t.Fatal("negative tweet count accepted")
	}
}

// TestAdoptCaptureRepeatsBookkeeping: adopting a WAL record performs the
// same group accounting Match would, resolves live accounts, and keeps the
// logged profile snapshots for extraction.
func TestAdoptCaptureRepeatsBookkeeping(t *testing.T) {
	m := newSnapshotMonitor(t)
	live := map[socialnet.AccountID]*socialnet.Account{
		5: {ID: 5, ScreenName: "sender_live"},
		7: {ID: 7, ScreenName: "node_live"},
	}
	lookup := func(id socialnet.AccountID) *socialnet.Account { return live[id] }
	tw := &socialnet.Tweet{ID: 1, AuthorID: 5, Mentions: []socialnet.AccountID{7}}
	senderSnap := &socialnet.Account{ID: 5, ScreenName: "sender_frozen"}
	receiverSnap := &socialnet.Account{ID: 7, ScreenName: "node_frozen"}

	c, err := m.AdoptCapture(tw, senderSnap, receiverSnap, []int{1}, lookup)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sender != live[5] {
		t.Fatal("adopted capture not bound to the live sender")
	}
	if c.SenderSnapshot() != senderSnap || c.ReceiverSnapshot() != receiverSnap {
		t.Fatal("adopted capture lost its logged profile snapshots")
	}
	g := m.Groups()[1]
	if g.Tweets != 1 {
		t.Fatalf("group tweets = %d, want 1", g.Tweets)
	}
	if _, ok := g.Senders[5]; !ok {
		t.Fatal("sender not recorded in group")
	}
	if other := m.Groups()[0]; other.Tweets != 0 {
		t.Fatal("unrelated group mutated")
	}

	if _, err := m.AdoptCapture(tw, nil, nil, []int{9}, lookup); err == nil {
		t.Fatal("out-of-range group index accepted")
	}
	// ExtractCapture works on an adopted capture (snapshots present).
	m.ExtractCapture(c)
}

// TestAdoptedSpamCreditsGroupWithoutLiveReceiver: a mention capture
// adopted while the restored world lacks its receiver — a node spawned
// mid-run, which recovery's hour-zero world has not recreated — still
// credits its groups with the spam. Attribution reads the logged receiver
// snapshot, as it reads the match-time one on a live capture.
func TestAdoptedSpamCreditsGroupWithoutLiveReceiver(t *testing.T) {
	m := newSnapshotMonitor(t)
	sender := &socialnet.Account{ID: 5}
	lookup := func(id socialnet.AccountID) *socialnet.Account {
		if id == sender.ID {
			return sender
		}
		return nil
	}
	tw := &socialnet.Tweet{ID: 1, AuthorID: 5, Mentions: []socialnet.AccountID{4100}}
	receiverSnap := &socialnet.Account{ID: 4100, ScreenName: "spawned_node"}
	c, err := m.AdoptCapture(tw, &socialnet.Account{ID: 5}, receiverSnap, []int{1}, lookup)
	if err != nil {
		t.Fatal(err)
	}
	m.Store().Append(c)
	m.AttributeSpam([]bool{true})
	g := m.Groups()[1]
	if _, ok := g.Spammers[5]; g.Spams != 1 || !ok {
		t.Fatalf("group credited %d spams, spammers %v; want 1 from sender 5", g.Spams, g.Spammers)
	}
	if other := m.Groups()[0]; other.Spams != 0 {
		t.Fatal("unrelated group credited")
	}
}
