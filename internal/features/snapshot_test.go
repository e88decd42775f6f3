package features

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/simclock"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// snapshotObservations builds a deterministic stream exercising every
// piece of behavioural state: repeated texts, reciprocity pairs, interval
// accumulation, env scores.
func snapshotObservations(n int) []Observation {
	obs := make([]Observation, 0, n)
	for i := 0; i < n; i++ {
		at := simclock.Epoch.Add(time.Duration(i*7) * time.Minute)
		tw := testTweet(socialnet.TweetID(i+1), socialnet.AccountID(i%5+1), at,
			fmt.Sprintf("text body %d", i%3))
		tw.Kind = socialnet.TweetKind(i%3 + 1)
		tw.Source = socialnet.Source(i%socialnet.NumSources + 1)
		o := Observation{Tweet: tw, Sender: testAccount(socialnet.AccountID(i%5 + 1))}
		if i%2 == 0 {
			o.Receiver = testAccount(socialnet.AccountID(i%3 + 10))
			o.AttrKeys = []string{"followers"}
		}
		obs = append(obs, o)
	}
	return obs
}

// TestExtractorSnapshotResumesStream: vectors extracted after a
// snapshot/restore must be bit-identical to an uninterrupted extractor's.
func TestExtractorSnapshotResumesStream(t *testing.T) {
	obs := snapshotObservations(60)
	half := len(obs) / 2

	uninterrupted := NewExtractor()
	uninterrupted.UpdateEnvScore("followers", 0.25)
	var want []Vector
	for _, o := range obs {
		want = append(want, extract(uninterrupted, o))
	}

	first := NewExtractor()
	first.UpdateEnvScore("followers", 0.25)
	for _, o := range obs[:half] {
		extract(first, o)
	}
	restored := NewExtractor()
	if err := restored.RestoreSnapshot(first.EncodeSnapshot()); err != nil {
		t.Fatal(err)
	}
	for i, o := range obs[half:] {
		got := extract(restored, o)
		if got != want[half+i] {
			t.Fatalf("vector %d diverged after restore:\n got %v\nwant %v",
				half+i, got, want[half+i])
		}
	}
}

// TestExtractorSnapshotRejectsGarbage: a decode failure reports an error
// and leaves the extractor usable.
func TestExtractorSnapshotRejectsGarbage(t *testing.T) {
	e := NewExtractor()
	if err := e.RestoreSnapshot([]byte("not a snapshot section")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	// Still usable after the failed restore.
	extract(e, Observation{Tweet: testTweet(1, 1, simclock.Epoch, "x"), Sender: testAccount(1)})
}

// TestExtractorSnapshotEmpty round-trips a pristine extractor.
func TestExtractorSnapshotEmpty(t *testing.T) {
	e := NewExtractor()
	if err := e.RestoreSnapshot(NewExtractor().EncodeSnapshot()); err != nil {
		t.Fatal(err)
	}
	if got := e.EnvScore(nil); got != DefaultTau {
		t.Fatalf("restored tau = %v, want %v", got, DefaultTau)
	}
}

// FuzzExtractorSnapshot holds the extractor's checkpoint section decoder
// to the codec's contract on arbitrary bytes: RestoreSnapshot restores or
// fails cleanly, never panics and never allocates past a small multiple of
// the input, and a failed restore leaves the extractor as it was. A
// restored extractor encodes a section that restores and encodes to itself.
func FuzzExtractorSnapshot(f *testing.F) {
	e := NewExtractor()
	for _, o := range snapshotObservations(40) {
		extract(e, o)
	}
	e.UpdateEnvScore("followers", 0.75)
	valid := e.EncodeSnapshot()
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewExtractor()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := e.RestoreSnapshot(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(data)) {
			t.Fatalf("reading %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			if e.tau != DefaultTau || len(e.histories) != 0 {
				t.Fatal("failed read changed the extractor")
			}
			return
		}
		once := e.EncodeSnapshot()
		again := NewExtractor()
		if err := again.RestoreSnapshot(once); err != nil {
			t.Fatalf("re-encoded snapshot does not restore: %v", err)
		}
		if !bytes.Equal(once, again.EncodeSnapshot()) {
			t.Fatal("re-encoding a restored extractor is not stable")
		}
	})
}
