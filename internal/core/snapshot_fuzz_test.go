package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what decoding n bytes of a checkpoint section may
// allocate: a small multiple of the input, plus a constant.
func allocBound(n int) uint64 { return 1<<20 + 64*uint64(n) }

// FuzzOnlineSnapshot holds the online window's section decoder to the
// codec's contract on arbitrary bytes: it decodes or fails cleanly, never
// panics and never allocates past a small multiple of the input. A decoded
// window writes a section that decodes and writes to itself.
func FuzzOnlineSnapshot(f *testing.F) {
	online, err := NewOnlineDetector(ClassifierDT, 100, 10, 1)
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 25; i++ {
		c, label := driftCapture(rng, rng.Float64() < 0.4, 0)
		if err := online.Observe(c, label); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := online.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var snap *onlineSnapshot
		var err error
		if grew := allocated(func() { snap, err = decodeOnlineSnapshot(data) }); grew > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		write := func(s *onlineSnapshot) []byte {
			o := &OnlineDetector{x: s.X, y: s.Y, sinceFit: s.SinceFit, retrains: s.Retrains, everTrain: s.EverTrain}
			var b bytes.Buffer
			if err := o.WriteSnapshot(&b); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}
		once := write(snap)
		again, err := decodeOnlineSnapshot(once)
		if err != nil {
			t.Fatalf("re-written window does not decode: %v", err)
		}
		if !bytes.Equal(once, write(again)) {
			t.Fatal("re-writing a decoded window is not stable")
		}
	})
}

// FuzzGroupStats holds DecodeGroupStats to the codec's contract on
// arbitrary bytes, and a decoded section to re-encoding stably.
func FuzzGroupStats(f *testing.F) {
	f.Add(EncodeGroupStats([]GroupStatsSnapshot{
		{Tweets: 9, Senders: []socialnet.AccountID{1, 4, 7}, Spams: 2, Spammers: []socialnet.AccountID{4}},
		{},
	}))
	f.Add(EncodeGroupStats(nil))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var gs []GroupStatsSnapshot
		var err error
		if grew := allocated(func() { gs, err = DecodeGroupStats(data) }); grew > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		once := EncodeGroupStats(gs)
		again, err := DecodeGroupStats(once)
		if err != nil {
			t.Fatalf("re-encoded group stats do not decode: %v", err)
		}
		if !bytes.Equal(once, EncodeGroupStats(again)) {
			t.Fatal("re-encoding decoded group stats is not stable")
		}
	})
}
