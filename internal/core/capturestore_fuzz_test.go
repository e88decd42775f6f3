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

// FuzzCaptureStoreSnapshotRoundTrip drives random store shapes (capacity,
// stream length, nil senders/receivers, random field values) through
// EncodeSnapshot/RestoreSnapshot and requires the retained window to
// survive exactly — plus, on a first leg, feeds the raw fuzz bytes
// straight into RestoreSnapshot to shake out decode panics and oversized
// allocations.
func FuzzCaptureStoreSnapshotRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(9), []byte{})
	f.Add(int64(7), uint8(0), uint8(33), []byte("junk"))
	f.Add(int64(42), uint8(16), uint8(16), []byte{0x03, 0xff, 0x00})
	f.Fuzz(func(t *testing.T, seed int64, capLimit, n uint8, raw []byte) {
		// Leg 1: adversarial decode of arbitrary bytes must error or
		// succeed, never panic, and allocate no more than a small
		// multiple of the input.
		junk := NewCaptureStore(int(capLimit), metrics.NewRegistry())
		if grew := allocated(func() { _ = junk.RestoreSnapshot(raw, missLookup) }); grew > allocBound(len(raw)) {
			t.Fatalf("restoring %d bytes allocated %d", len(raw), grew)
		}

		// Leg 2: structured round-trip.
		rng := rand.New(rand.NewSource(seed))
		src := NewCaptureStore(int(capLimit), metrics.NewRegistry())
		for i := 0; i < int(n); i++ {
			var vec features.Vector
			for j := range vec {
				vec[j] = rng.NormFloat64()
			}
			c := &Capture{
				Tweet: &socialnet.Tweet{
					ID:        socialnet.TweetID(rng.Int63()),
					AuthorID:  socialnet.AccountID(rng.Int63()),
					CreatedAt: time.Unix(rng.Int63n(1<<32), 0).UTC(),
					Text:      string(rune('a' + rng.Intn(26))),
				},
				Groups: []int{rng.Intn(8)},
				Vector: vec,
				Spam:   rng.Intn(2) == 0,
				Source: []string{"", "twitter", "reddit"}[rng.Intn(3)],
			}
			if rng.Intn(3) > 0 {
				c.Sender = &socialnet.Account{ID: c.Tweet.AuthorID, ScreenName: "s"}
				snap := *c.Sender
				snap.StatusesCount = rng.Intn(1000)
				snap.TweetsPerHour = rng.Float64()
				snap.SetLastPostAt(time.Unix(rng.Int63n(1<<32), 0).UTC())
				c.senderSnap = &snap
			}
			if rng.Intn(3) == 0 {
				c.receiverSnap = &socialnet.Account{ID: 7, FollowersCount: rng.Intn(1000)}
			}
			src.Append(c)
		}
		// The restored world holds only some of the authors.
		lookup := func(id socialnet.AccountID) *socialnet.Account {
			if id%2 == 0 {
				return nil
			}
			return &socialnet.Account{ID: id}
		}
		dst := NewCaptureStore(int(capLimit), metrics.NewRegistry())
		if err := dst.RestoreSnapshot(src.EncodeSnapshot(), lookup); err != nil {
			t.Fatalf("restore own snapshot: %v", err)
		}
		if dst.Len() != src.Len() || dst.Evicted() != src.Evicted() {
			t.Fatalf("len/evicted %d/%d, want %d/%d",
				dst.Len(), dst.Evicted(), src.Len(), src.Evicted())
		}
		want, got := src.Snapshot(), dst.Snapshot()
		for i := range want {
			if !reflect.DeepEqual(got[i].Tweet, want[i].Tweet) ||
				!reflect.DeepEqual(got[i].Groups, want[i].Groups) ||
				got[i].Vector != want[i].Vector ||
				got[i].Spam != want[i].Spam || got[i].Source != want[i].Source {
				t.Fatalf("capture %d mismatch after round-trip", i)
			}
			if !reflect.DeepEqual(got[i].SenderSnapshot(), want[i].SenderSnapshot()) ||
				!reflect.DeepEqual(got[i].ReceiverSnapshot(), want[i].ReceiverSnapshot()) {
				t.Fatalf("capture %d snapshots mismatch after round-trip", i)
			}
			if live := lookup(got[i].Tweet.AuthorID); (got[i].Sender == nil) != (live == nil) ||
				live != nil && got[i].Sender.ID != live.ID {
				t.Fatalf("capture %d sender %v, want the lookup's %v", i, got[i].Sender, live)
			}
		}
	})
}
