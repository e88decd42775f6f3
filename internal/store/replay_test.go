package store_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/store"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/store/fstest"
)

func testRotation(hour int) *store.RotationRecord {
	return &store.RotationRecord{
		Hour:   hour,
		Now:    time.Date(2019, 6, 1, hour, 0, 0, 0, time.UTC),
		Counts: []int{2, 0, 3, 1},
	}
}

// TestReadLogRoundTrip is the recording contract: everything a
// replayable run appends — captures, rotations, sim-hour advances, the
// profile epilogue, the meta stamp — comes back from ReadLog in order,
// across the segment rotations checkpoints force.
func TestReadLogRoundTrip(t *testing.T) {
	b := fstest.New()
	s, _ := openTest(t, b, 1)
	for hour := 0; hour < 3; hour++ {
		if err := s.AppendRotation(testRotation(hour)); err != nil {
			t.Fatal(err)
		}
		appendN(t, s, hour*5, 5)
		if err := s.AppendSimHours(1); err != nil {
			t.Fatal(err)
		}
		// Checkpoint every hour: rotates the segment, and with the
		// default pruning exercises that ReadLog reads what's left —
		// retention itself is TestRetainAllKeepsFullHistory's job, so
		// keep everything here via RetainAll-free single-run reads
		// before any pruning can strike (two checkpoints are retained,
		// three segments stay on disk for three hours).
		if hour == 1 {
			if err := s.WriteCheckpoint(&store.Checkpoint{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Two epilogues: the newest snapshot must win per account.
	if err := s.AppendProfiles([]*socialnet.Account{
		{ID: 7, ScreenName: "stale", Suspended: false},
		{ID: 9, ScreenName: "other"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendProfiles([]*socialnet.Account{
		{ID: 7, ScreenName: "fresh", Suspended: true},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := store.ReadLog(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Captures) != 15 {
		t.Fatalf("captures = %d, want 15", len(log.Captures))
	}
	for i, c := range log.Captures {
		if want := socialnet.TweetID(1000 + i); c.Tweet.ID != want {
			t.Fatalf("capture %d tweet id = %d, want %d", i, c.Tweet.ID, want)
		}
	}
	if len(log.Rotations) != 3 {
		t.Fatalf("rotations = %d, want 3", len(log.Rotations))
	}
	for hour, r := range log.Rotations {
		want := testRotation(hour)
		if r.Hour != want.Hour || !r.Now.Equal(want.Now) {
			t.Fatalf("rotation %d = %+v, want hour %d at %v", hour, r, want.Hour, want.Now)
		}
		if len(r.Counts) != len(want.Counts) {
			t.Fatalf("rotation %d counts = %v, want %v", hour, r.Counts, want.Counts)
		}
		for g := range r.Counts {
			if r.Counts[g] != want.Counts[g] {
				t.Fatalf("rotation %d counts = %v, want %v", hour, r.Counts, want.Counts)
			}
		}
	}
	if log.SimHours != 3 {
		t.Errorf("sim hours = %d, want 3", log.SimHours)
	}
	if log.Meta != "test-meta" {
		t.Errorf("meta = %q, want test-meta", log.Meta)
	}
	if log.Torn != 0 {
		t.Errorf("torn segments = %d, want 0", log.Torn)
	}
	if len(log.Profiles) != 2 {
		t.Fatalf("profiles = %d accounts, want 2", len(log.Profiles))
	}
	if a := log.Profiles[7]; a == nil || a.ScreenName != "fresh" || !a.Suspended {
		t.Errorf("profile 7 = %+v, want the newest epilogue snapshot", log.Profiles[7])
	}
	if a := log.Profiles[9]; a == nil || a.ScreenName != "other" {
		t.Errorf("profile 9 = %+v, want retained from the older epilogue", log.Profiles[9])
	}
}

// TestReadLogToleratesTornTail mirrors recovery's crash posture: a
// recording whose tail was torn mid-write still reads, reporting the
// torn segment instead of failing the whole replay.
func TestReadLogToleratesTornTail(t *testing.T) {
	b := fstest.New()
	// A large group-commit window keeps every append unsynced, so the
	// simulated crash below tears the segment mid-frame.
	s, _ := openTest(t, b, 100)
	if err := s.AppendRotation(testRotation(0)); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 4)
	b.Crash(17)
	_ = s

	log, err := store.ReadLog(b)
	if err != nil {
		t.Fatal(err)
	}
	if log.Torn != 1 {
		t.Errorf("torn segments = %d, want 1", log.Torn)
	}
	if len(log.Captures) != 0 || len(log.Rotations) != 0 {
		t.Errorf("torn log decoded %d captures / %d rotations, want none past the tear",
			len(log.Captures), len(log.Rotations))
	}
}

// TestDecodeRotationRejectsCorruptPayloads pins the decoder's defensive
// branches: truncation anywhere inside the record and a count claiming
// more entries than bytes remain both fail loudly instead of yielding a
// half-read rotation.
func TestDecodeRotationRejectsCorruptPayloads(t *testing.T) {
	if _, err := store.DecodeRotation(nil); err == nil {
		t.Error("empty rotation payload decoded")
	}
	if _, err := store.DecodeRotation([]byte{1, 4, 0}); err == nil {
		t.Error("truncated rotation payload decoded")
	}
	if _, err := store.DecodeRotation([]byte{1, 4, 0, 0, 0xff, 0xff, 0x3f}); err == nil {
		t.Error("overlong rotation count decoded")
	}
}

// TestDecodeProfilesRejectsCorruptPayloads does the same for the
// epilogue decoder.
func TestDecodeProfilesRejectsCorruptPayloads(t *testing.T) {
	if _, _, err := store.DecodeProfiles(nil); err == nil {
		t.Error("empty profiles payload decoded")
	}
	if _, _, err := store.DecodeProfiles([]byte{1, 0xff, 0xff, 0x3f}); err == nil {
		t.Error("overlong profiles count decoded")
	}
	if _, _, err := store.DecodeProfiles([]byte{1, 2, 0}); err == nil {
		t.Error("truncated profiles payload decoded")
	}
}

// TestStatusAndHealthExtra covers the operator surface: Status reflects
// appended sequences and checkpoint coverage, and HealthExtra stamps the
// same numbers into a metrics health snapshot.
func TestStatusAndHealthExtra(t *testing.T) {
	b := fstest.New()
	s, _ := openTest(t, b, 1)
	defer func() { _ = s.Close() }()
	appendN(t, s, 0, 3)
	if err := s.WriteCheckpoint(&store.Checkpoint{}); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if st.LastSeq != 3 || st.LastCheckpointSeq != 3 {
		t.Fatalf("status = %+v, want seqs 3/3", st)
	}
	if st.LastSyncError != "" {
		t.Fatalf("status sync error = %q, want none", st.LastSyncError)
	}
	var h metrics.Health
	s.HealthExtra()(&h)
	if h.WAL == nil {
		t.Fatal("HealthExtra stamped no WAL section")
	}
	if h.WAL.LastSeq != 3 || h.WAL.LastCheckpointSeq != 3 {
		t.Fatalf("health WAL = %+v, want seqs 3/3", h.WAL)
	}
}

// TestReadLogPropagatesBackendErrors: a backend that cannot even list
// its files fails the read loudly rather than returning an empty log a
// replay would mistake for an empty recording.
func TestReadLogPropagatesBackendErrors(t *testing.T) {
	b := fstest.New()
	s, _ := openTest(t, b, 1)
	appendN(t, s, 0, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.ReadLog(failingListBackend{b}); err == nil ||
		!strings.Contains(err.Error(), "list") {
		t.Fatalf("ReadLog with failing List = %v, want list error", err)
	}
	// A segment that lists but cannot open fails the read too.
	b.FailAfter(fstest.OpOpen, 1)
	if _, err := store.ReadLog(b); err == nil ||
		!strings.Contains(err.Error(), "open segment") {
		t.Fatalf("ReadLog with failing Open = %v, want open error", err)
	}
	// And a mid-segment read fault surfaces instead of truncating the
	// history silently.
	b.FailAfter(fstest.OpRead, 1)
	if _, err := store.ReadLog(b); err == nil {
		t.Fatal("ReadLog with failing Read succeeded")
	}
}

// TestAppendRotationSurfacesWriteFaults: recording appends report
// backend failures the store's own retry could not get past to the
// caller — a rotation the log refused is a replay that would come up one
// hour short.
func TestAppendRotationSurfacesWriteFaults(t *testing.T) {
	b := fstest.New()
	s, _ := openTest(t, b, 1)
	defer func() { _ = s.Close() }()
	if err := s.AppendRotation(testRotation(0)); err != nil {
		t.Fatal(err)
	}
	// Each fault below starts from a healthy segment, so the append's
	// retry on a fresh one is what the second scheduled fault hits.
	failTwice(b, fstest.OpWrite)
	if err := s.AppendRotation(testRotation(1)); err == nil {
		t.Fatal("AppendRotation with failing write succeeded")
	}
	// The store recovers onto a fresh segment: the next append lands.
	if err := s.AppendRotation(testRotation(2)); err != nil {
		t.Fatalf("append after recovered faults: %v", err)
	}
	failTwice(b, fstest.OpSync)
	if err := s.AppendProfiles([]*socialnet.Account{{ID: 3}}); err == nil {
		t.Fatal("AppendProfiles with failing sync succeeded")
	}
	if err := s.AppendRotation(testRotation(3)); err != nil {
		t.Fatalf("append after recovered faults: %v", err)
	}
	// A frame too large for the writer's buffer writes through to the
	// backend immediately; a write fault there must surface on the
	// append itself, not wait for the next sync.
	failTwice(b, fstest.OpWrite)
	big := &socialnet.Account{ID: 4, Name: strings.Repeat("x", 2<<20)}
	if err := s.AppendProfiles([]*socialnet.Account{big}); err == nil {
		t.Fatal("oversized AppendProfiles with failing write succeeded")
	}
	if err := s.AppendRotation(testRotation(4)); err != nil {
		t.Fatalf("append after write-through fault: %v", err)
	}
}

// failingListBackend wraps a backend whose List always fails.
type failingListBackend struct{ store.Backend }

func (f failingListBackend) List() ([]string, error) {
	return nil, errors.New("list failed")
}
