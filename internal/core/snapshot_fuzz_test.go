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

// FuzzOnlineSnapshot holds the online detector's restore to the codec's
// contract on arbitrary bytes: it restores or fails cleanly, never panics
// and never allocates past a small multiple of the input. A restored
// detector encodes a section that restores and encodes to itself.
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
	valid := online.EncodeSnapshot()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		restore := func(b []byte) (*OnlineDetector, error) {
			o, err := NewOnlineDetector(ClassifierDT, 100, 10, 1)
			if err != nil {
				t.Fatal(err)
			}
			return o, o.RestoreSnapshot(b)
		}
		var o *OnlineDetector
		var err error
		if grew := allocated(func() { o, err = restore(data) }); grew > allocBound(len(data)) {
			t.Fatalf("restoring %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		once := o.EncodeSnapshot()
		again, err := restore(once)
		if err != nil {
			t.Fatalf("re-encoded window does not restore: %v", err)
		}
		if !bytes.Equal(once, again.EncodeSnapshot()) {
			t.Fatal("re-encoding a restored window is not stable")
		}
	})
}

// FuzzGroupStats holds the monitor's group-stats restore to the codec's
// contract on arbitrary bytes, and a restored monitor to re-encoding
// stably.
func FuzzGroupStats(f *testing.F) {
	f.Add(encodeGroupStats([]GroupStatsSnapshot{
		{Tweets: 9, Senders: []socialnet.AccountID{1, 4, 7}, Spams: 2, Spammers: []socialnet.AccountID{4}},
		{},
	}))
	f.Add(encodeGroupStats(nil))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newSnapshotMonitor(t)
		var err error
		if grew := allocated(func() { err = m.RestoreGroupStats(data) }); grew > allocBound(len(data)) {
			t.Fatalf("restoring %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		once := m.EncodeGroupStats()
		again := newSnapshotMonitor(t)
		if err := again.RestoreGroupStats(once); err != nil {
			t.Fatalf("re-encoded group stats do not restore: %v", err)
		}
		if !bytes.Equal(once, again.EncodeGroupStats()) {
			t.Fatal("re-encoding restored group stats is not stable")
		}
	})
}
