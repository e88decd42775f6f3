package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/features"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// FuzzCaptureStoreSnapshotRoundTrip drives random store shapes (capacity,
// stream length, nil senders/receivers, random field values) through
// WriteSnapshot/ReadSnapshot and requires the retained window to survive
// exactly — plus, on a second leg, feeds the raw fuzz bytes straight into
// ReadSnapshot to shake out decode panics.
func FuzzCaptureStoreSnapshotRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(9), []byte{})
	f.Add(int64(7), uint8(0), uint8(33), []byte("junk"))
	f.Add(int64(42), uint8(16), uint8(16), []byte{0x03, 0xff, 0x00})
	f.Fuzz(func(t *testing.T, seed int64, capLimit, n uint8, raw []byte) {
		// Leg 1: adversarial decode of arbitrary bytes must error or
		// succeed, never panic.
		junk := NewCaptureStore(int(capLimit), metrics.NewRegistry())
		_ = junk.ReadSnapshot(bytes.NewReader(raw))

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
			}
			if rng.Intn(3) > 0 {
				c.Sender = &socialnet.Account{ID: c.Tweet.AuthorID, ScreenName: "s"}
			}
			if rng.Intn(3) == 0 {
				c.Receiver = &socialnet.Account{ID: 7}
			}
			src.Append(c)
		}
		var buf bytes.Buffer
		if err := src.WriteSnapshot(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		dst := NewCaptureStore(int(capLimit), metrics.NewRegistry())
		if err := dst.ReadSnapshot(&buf); err != nil {
			t.Fatalf("read back own snapshot: %v", err)
		}
		if dst.Len() != src.Len() || dst.Evicted() != src.Evicted() {
			t.Fatalf("len/evicted %d/%d, want %d/%d",
				dst.Len(), dst.Evicted(), src.Len(), src.Evicted())
		}
		want, got := src.Snapshot(), dst.Snapshot()
		for i := range want {
			if got[i].Tweet.ID != want[i].Tweet.ID ||
				got[i].Vector != want[i].Vector ||
				got[i].Spam != want[i].Spam {
				t.Fatalf("capture %d mismatch after round-trip", i)
			}
			if (got[i].Sender == nil) != (want[i].Sender == nil) ||
				(got[i].Receiver == nil) != (want[i].Receiver == nil) {
				t.Fatalf("capture %d pointer presence mismatch", i)
			}
		}
	})
}
