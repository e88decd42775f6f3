package label

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// TestStoreSnapshotRestoreResumesStream is the checkpoint-equivalence
// property: feed half the stream, serialize, restore into a FRESH store,
// feed the rest, and the final Snapshot must equal the full-batch oracle —
// i.e. a crash between the halves is invisible.
func TestStoreSnapshotRestoreResumesStream(t *testing.T) {
	corpus, w := collectCorpus(t, 8)
	half := len(corpus.Tweets) / 2
	prefix := NewCorpus(corpus.Tweets[:half], func(id socialnet.AccountID) *socialnet.Account {
		return corpus.Users[id]
	})

	st := NewStore(DefaultConfig())
	feedStore(st, prefix, 13, nil)
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored := NewStore(DefaultConfig())
	resolve := func(id socialnet.AccountID) *socialnet.Account { return corpus.Users[id] }
	if err := restored.ReadSnapshot(bytes.NewReader(buf.Bytes()), resolve); err != nil {
		t.Fatal(err)
	}
	tweets, users := restored.Len()
	wantTweets, wantUsers := st.Len()
	if tweets != wantTweets || users != wantUsers {
		t.Fatalf("restored Len = %d/%d, want %d/%d", tweets, users, wantTweets, wantUsers)
	}

	rest := NewCorpus(corpus.Tweets[half:], func(id socialnet.AccountID) *socialnet.Account {
		return corpus.Users[id]
	})
	feedStore(restored, rest, 13, nil)
	got := restored.Snapshot(NewNoisyOracle(w, 0.02, 7))
	want := NewPipeline(DefaultConfig()).Run(corpus, NewNoisyOracle(w, 0.02, 7))
	if !reflect.DeepEqual(want, got) {
		t.Fatal("post-restore snapshot diverged from the full batch oracle")
	}
}

// TestStoreSnapshotFrozenFallback: with no resolver the restored store
// labels against the frozen add-time profiles — still a valid corpus.
func TestStoreSnapshotFrozenFallback(t *testing.T) {
	st := NewStore(DefaultConfig())
	a := &socialnet.Account{ID: 1, ScreenName: "alice", Description: "hello there friends"}
	st.Add(&socialnet.Tweet{ID: 1, AuthorID: 1, Text: "lunch was nice today"}, a, a)

	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore(DefaultConfig())
	if err := restored.ReadSnapshot(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if _, users := restored.Len(); users != 1 {
		t.Fatalf("restored %d users, want 1", users)
	}
	if r := restored.Snapshot(nil); r == nil {
		t.Fatal("nil result from restored store")
	}
}

// TestStoreSnapshotResolverRebindsAtSnapshotTime reproduces the recovery
// scenario that motivates SetResolver: the author was spawned mid-run, so
// at restore/replay time the re-seeded world cannot resolve the id and
// the store holds only the frozen, not-yet-suspended capture-time
// profile. By labeling time the re-run simulation has recreated — and
// suspended — the account; Snapshot must read that live state, exactly as
// an uninterrupted run (whose users map holds live pointers) would.
func TestStoreSnapshotResolverRebindsAtSnapshotTime(t *testing.T) {
	st := NewStore(DefaultConfig())
	frozen := &socialnet.Account{ID: 9, ScreenName: "spawned_sp4mm3r",
		Description: "buy cheap stuff now", DefaultProfileImage: true}
	st.Add(&socialnet.Tweet{ID: 1, AuthorID: 9, Text: "amazing deal follow the link"}, frozen, frozen)
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore-time resolution misses: the account does not exist yet.
	restored := NewStore(DefaultConfig())
	if err := restored.ReadSnapshot(&buf, func(socialnet.AccountID) *socialnet.Account { return nil }); err != nil {
		t.Fatal(err)
	}
	// WAL replay likewise binds a later spawned author to its frozen
	// profile (the live lookup misses during replay).
	frozen2 := &socialnet.Account{ID: 11, ScreenName: "late_arrival",
		Description: "totally organic account", DefaultProfileImage: true}
	restored.Add(&socialnet.Tweet{ID: 2, AuthorID: 11, Text: "another unrelated tweet"}, frozen2, frozen2)

	// By Snapshot time the simulation has recreated both accounts and
	// suspended the first.
	live := map[socialnet.AccountID]*socialnet.Account{
		9:  {ID: 9, ScreenName: "spawned_sp4mm3r", Suspended: true},
		11: {ID: 11, ScreenName: "late_arrival"},
	}
	restored.SetResolver(func(id socialnet.AccountID) *socialnet.Account { return live[id] })

	r := restored.Snapshot(nil)
	if r.Spammers[9] != MethodSuspended {
		t.Fatalf("suspended live author labeled %v, want MethodSuspended", r.Spammers[9])
	}
	if _, ok := r.Spammers[11]; ok {
		t.Fatal("unsuspended author labeled spammer")
	}
}

// TestStoreSnapshotRejectsCorruption: decode and validation failures leave
// the store untouched and report an error.
func TestStoreSnapshotRejectsCorruption(t *testing.T) {
	st := NewStore(DefaultConfig())
	a := &socialnet.Account{ID: 1, ScreenName: "alice"}
	st.Add(&socialnet.Tweet{ID: 1, AuthorID: 1, Text: "some tweet text"}, a, a)
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	fresh := NewStore(DefaultConfig())
	if err := fresh.ReadSnapshot(bytes.NewReader([]byte("garbage")), nil); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	truncated := buf.Bytes()[:buf.Len()/2]
	if err := fresh.ReadSnapshot(bytes.NewReader(truncated), nil); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if tweets, users := fresh.Len(); tweets != 0 || users != 0 {
		t.Fatalf("failed restore mutated store: %d/%d", tweets, users)
	}
}
