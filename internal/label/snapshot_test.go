package label

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// TestStoreSnapshotRestoreResumesStream is the checkpoint-equivalence
// property: feed half the stream, serialize, restore into a FRESH store,
// feed the rest, and the final groups and Snapshot must equal the full-batch
// oracle's and the uninterrupted store's — i.e. a crash between the halves
// is invisible. The adversarial
// corpus puts half of its 300-tweet campaign on each side of the cut, so the
// restored union-find and banding index have to carry it across.
func TestStoreSnapshotRestoreResumesStream(t *testing.T) {
	corpus, w, _ := adversarialCorpus(t)
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
	requireStoreMatchesBatch(t, restored, DefaultConfig(), corpus, w)

	// … and equals the store that never stopped, groups and labels: the
	// restored store's normalized texts were recomputed, not restored.
	feedStore(st, rest, 13, nil)
	if !reflect.DeepEqual(st.tweetGroupsLocked(), restored.tweetGroupsLocked()) ||
		!reflect.DeepEqual(st.descGroupsLocked(), restored.descGroupsLocked()) {
		t.Fatal("restored store's groups diverged from the uninterrupted store's")
	}
	if !reflect.DeepEqual(st.norms, restored.norms) {
		t.Fatal("restored store's normalized texts diverged from the uninterrupted store's")
	}
	if want, got := st.Snapshot(NewNoisyOracle(w, 0.02, 7)), restored.Snapshot(NewNoisyOracle(w, 0.02, 7)); !reflect.DeepEqual(want, got) {
		t.Fatal("restored store's Snapshot diverged from the uninterrupted store's")
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
	a := &socialnet.Account{ID: 1, ScreenName: "alice", Description: "gardener and amateur beekeeper"}
	st.Add(&socialnet.Tweet{ID: 1, AuthorID: 1, Text: "some tweet text, long enough to be signed"}, a, a)
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
	// A well-formed payload whose signatures are not lshBands×lshRows words
	// long: the banding index could never match them again.
	for name, corrupt := range map[string]func(*storeSnapshot){
		"short description signature": func(snap *storeSnapshot) { snap.DescSigs[0] = snap.DescSigs[0][:lshRows] },
		"long tweet signature":        func(snap *storeSnapshot) { snap.TwSigs[0] = append(snap.TwSigs[0], 1) },
		"empty tweet signature":       func(snap *storeSnapshot) { snap.TwSigs[0] = nil },
	} {
		var snap storeSnapshot
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		corrupt(&snap)
		var bad bytes.Buffer
		if err := gob.NewEncoder(&bad).Encode(snap); err != nil {
			t.Fatal(err)
		}
		if err := fresh.ReadSnapshot(&bad, nil); err == nil {
			t.Fatalf("snapshot with a %s accepted", name)
		}
	}
	if tweets, users := fresh.Len(); tweets != 0 || users != 0 {
		t.Fatalf("failed restore mutated store: %d/%d", tweets, users)
	}
}
