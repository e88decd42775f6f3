package store_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/imagehash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/store"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/store/fstest"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// testCapture builds a deterministic capture record varying with i.
func testCapture(i int) *store.CaptureRecord {
	base := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	return &store.CaptureRecord{
		Tweet: socialnet.Tweet{
			ID:         socialnet.TweetID(1000 + i),
			AuthorID:   socialnet.AccountID(10 + i%7),
			CreatedAt:  base.Add(time.Duration(i) * time.Minute),
			Kind:       socialnet.KindTweet,
			Source:     socialnet.SourceMobile,
			Text:       fmt.Sprintf("win a prize #%d http://sp.am/%d", i, i),
			Hashtags:   []string{"prize", fmt.Sprintf("h%d", i%3)},
			Mentions:   []socialnet.AccountID{socialnet.AccountID(i + 1)},
			URLs:       []string{fmt.Sprintf("http://sp.am/%d", i)},
			Topic:      "trend",
			Spam:       i%2 == 0,
			CampaignID: i % 4,
		},
		Sender: &socialnet.Account{
			ID:               socialnet.AccountID(10 + i%7),
			ScreenName:       fmt.Sprintf("user%d", i%7),
			Name:             "User",
			Description:      "bio",
			CreatedAt:        base.AddDate(-1, 0, 0),
			FriendsCount:     10 * i,
			FollowersCount:   i,
			StatusesCount:    100 + i,
			ProfileImageSeed: int64(i),
			ProfileImageHash: imagehash.Hash{Hi: uint64(i) * 7, Lo: uint64(i) * 13},
			Kind:             socialnet.KindSpammer,
			TweetsPerHour:    1.5,
			MentionRate:      0.25,
			PreferredSource:  socialnet.SourceMobile,
		},
		Receiver: &socialnet.Account{
			ID:         socialnet.AccountID(i + 1),
			ScreenName: fmt.Sprintf("victim%d", i),
			CreatedAt:  base.AddDate(-2, 0, 0),
			Kind:       socialnet.KindNormal,
		},
		Groups: []int{i % 3, 3 + i%2},
	}
}

func openTest(t *testing.T, b store.Backend, syncEvery int) (*store.Store, *store.Recovery) {
	t.Helper()
	s, rec, err := store.Open(store.Options{
		Backend:   b,
		SyncEvery: syncEvery,
		Meta:      "test-meta",
		Metrics:   metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, rec
}

// failTwice makes the next operation of kind op fail, and the one after
// it: the store's own retry on a fresh segment. A single fault is absorbed
// by that retry; two surface to the caller.
func failTwice(b *fstest.Backend, op fstest.Op) {
	b.FailAfter(op, 1)
	b.FailAfter(op, 2)
}

func appendN(t *testing.T, s *store.Store, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := s.AppendCapture(testCapture(i)); err != nil {
			t.Fatalf("AppendCapture(%d): %v", i, err)
		}
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	b := fstest.New()
	s, rec := openTest(t, b, 1)
	if rec.Checkpoint != nil || len(rec.Records) != 0 || rec.Meta != "" {
		t.Fatalf("fresh store recovered state: %+v", rec)
	}
	appendN(t, s, 0, 25)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec2 := openTest(t, b, 1)
	defer func() { _ = s2.Close() }()
	if rec2.Meta != "test-meta" {
		t.Errorf("recovered meta %q", rec2.Meta)
	}
	if len(rec2.Records) != 25 {
		t.Fatalf("recovered %d records, want 25", len(rec2.Records))
	}
	for i, got := range rec2.Records {
		want := testCapture(i)
		want.Seq = uint64(i + 1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if s2.Seq() != 25 {
		t.Errorf("Seq() = %d, want 25", s2.Seq())
	}
}

func TestCheckpointCoversRecords(t *testing.T) {
	b := fstest.New()
	s, _ := openTest(t, b, 1)
	appendN(t, s, 0, 10)
	ck := &store.Checkpoint{
		TweetWatermark: 1009,
		Components:     map[string][]byte{"labels": []byte("state-at-10")},
	}
	if err := s.WriteCheckpoint(ck); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if ck.Seq != 10 {
		t.Fatalf("checkpoint seq %d, want 10", ck.Seq)
	}
	appendN(t, s, 10, 5)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec := openTest(t, b, 1)
	defer func() { _ = s2.Close() }()
	if rec.Checkpoint == nil {
		t.Fatal("no checkpoint recovered")
	}
	if rec.Checkpoint.Seq != 10 || rec.Checkpoint.TweetWatermark != 1009 {
		t.Errorf("checkpoint = %+v", rec.Checkpoint)
	}
	if got := string(rec.Checkpoint.Components["labels"]); got != "state-at-10" {
		t.Errorf("component = %q", got)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("replayed %d records past checkpoint, want 5", len(rec.Records))
	}
	if rec.Records[0].Seq != 11 || rec.Records[4].Seq != 15 {
		t.Errorf("replay seq range [%d,%d], want [11,15]",
			rec.Records[0].Seq, rec.Records[4].Seq)
	}
}

func TestCheckpointFallbackToOlder(t *testing.T) {
	b := fstest.New()
	s, _ := openTest(t, b, 1)
	appendN(t, s, 0, 5)
	if err := s.WriteCheckpoint(&store.Checkpoint{Components: map[string][]byte{"v": []byte("a")}}); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 5, 5)
	if err := s.WriteCheckpoint(&store.Checkpoint{Components: map[string][]byte{"v": []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 10, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest checkpoint's payload; recovery must fall back
	// to the seq-5 one and replay records 6..13 from the WAL.
	name := fmt.Sprintf("ckpt-%016d.ckpt", 10)
	if !b.CorruptSynced(name, 20) {
		t.Fatalf("could not corrupt %s", name)
	}
	s2, rec := openTest(t, b, 1)
	defer func() { _ = s2.Close() }()
	if rec.Fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", rec.Fallbacks)
	}
	if rec.Checkpoint == nil || rec.Checkpoint.Seq != 5 {
		t.Fatalf("checkpoint = %+v, want seq 5", rec.Checkpoint)
	}
	if string(rec.Checkpoint.Components["v"]) != "a" {
		t.Errorf("component = %q, want %q", rec.Checkpoint.Components["v"], "a")
	}
	if len(rec.Records) != 8 {
		t.Fatalf("replayed %d records, want 8 (seqs 6..13)", len(rec.Records))
	}
}

func TestCrashDiscardsUnsyncedKeepsSynced(t *testing.T) {
	for _, torn := range []int{0, 3} {
		t.Run(fmt.Sprintf("torn=%d", torn), func(t *testing.T) {
			b := fstest.New()
			s, _ := openTest(t, b, 1) // sync every append: all 8 durable
			appendN(t, s, 0, 8)
			if torn > 0 {
				// A 9th append whose fsync fails, on the first segment and
				// on the retry's, leaves a flushed but unsynced frame in
				// each; the crash keeps torn bytes of both.
				failTwice(b, fstest.OpSync)
				if err := s.AppendCapture(testCapture(8)); err == nil {
					t.Fatal("append with failing fsync succeeded")
				}
			}
			// No Close: the process dies. Crash also abandons the lock,
			// as a dead owner's stale pid file would be reclaimed.
			b.Crash(torn)
			_ = s

			s2, rec := openTest(t, b, 1)
			defer func() { _ = s2.Close() }()
			if len(rec.Records) != 8 {
				t.Fatalf("recovered %d records, want 8", len(rec.Records))
			}
			if torn > 0 && rec.Torn != 2 {
				t.Errorf("torn = %d, want 2", rec.Torn)
			}
		})
	}
}

func TestUnsyncedTailLostOnCrash(t *testing.T) {
	b := fstest.New()
	s, _ := openTest(t, b, 100) // group commit: nothing syncs automatically
	appendN(t, s, 0, 5)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 5, 4) // buffered, not yet durable
	// A failing fsync still flushes the buffer first, leaving the four
	// frames written but unsynced — the page-cache state a real crash
	// tears. The retry rewrites them into a fresh segment whose fsync
	// fails too.
	failTwice(b, fstest.OpSync)
	if err := s.Sync(); err == nil {
		t.Fatal("Sync with injected fsync fault succeeded")
	}
	b.Crash(2) // keep 2 torn bytes of each unsynced tail

	s2, rec := openTest(t, b, 1)
	defer func() { _ = s2.Close() }()
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records, want the 5 synced ones", len(rec.Records))
	}
	if rec.Torn != 2 {
		t.Errorf("torn = %d, want 2 (the first segment and the retry's)", rec.Torn)
	}
	// New appends must continue past the highest durable sequence.
	if err := s2.AppendCapture(testCapture(99)); err != nil {
		t.Fatal(err)
	}
	if s2.Seq() != 6 {
		t.Errorf("Seq() after recovery append = %d, want 6", s2.Seq())
	}
}

func TestWriteErrorRotatesSegment(t *testing.T) {
	b := fstest.New()
	s, _ := openTest(t, b, 1)
	appendN(t, s, 0, 3)
	failTwice(b, fstest.OpWrite)
	err := s.AppendCapture(testCapture(3))
	if !errors.Is(err, fstest.ErrInjected) {
		t.Fatalf("append during fault: %v, want injected error", err)
	}
	// The failed record consumed a sequence but never became durable
	// (its half-written frames are torn tails, in the first segment and
	// in the retry's); the next append rotates to a fresh segment and
	// proceeds.
	appendN(t, s, 4, 3)
	if s.Seq() != 7 {
		t.Errorf("Seq() = %d, want 7 (the failed append spends its sequence)", s.Seq())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec := openTest(t, b, 1)
	defer func() { _ = s2.Close() }()
	if len(rec.Records) != 6 {
		t.Fatalf("recovered %d records, want 6", len(rec.Records))
	}
	for i := 1; i < len(rec.Records); i++ {
		if rec.Records[i].Seq <= rec.Records[i-1].Seq {
			t.Fatalf("replay order broken: seq %d after %d",
				rec.Records[i].Seq, rec.Records[i-1].Seq)
		}
	}
	if rec.Torn != 2 {
		t.Errorf("torn = %d, want 2 (half-written frames at both rotated segment tails)", rec.Torn)
	}
}

func TestSyncErrorRotatesSegment(t *testing.T) {
	b := fstest.New()
	s, _ := openTest(t, b, 1)
	appendN(t, s, 0, 2)
	failTwice(b, fstest.OpSync)
	if err := s.AppendCapture(testCapture(2)); !errors.Is(err, fstest.ErrInjected) {
		t.Fatalf("append during sync fault: %v, want injected error", err)
	}
	appendN(t, s, 3, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec := openTest(t, b, 1)
	defer func() { _ = s2.Close() }()
	// The record whose sync failed was still written, into the old
	// segment and into the retry's, and later segments were synced. It
	// was flushed before the failing fsyncs, so the in-memory double kept
	// it in unsynced state until Crash — no crash here, so it survives,
	// and its sequence replays once.
	if got := recordSeqs(rec); !reflect.DeepEqual(got, []uint64{1, 2, 3, 4, 5}) {
		t.Fatalf("recovered seqs %v, want [1 2 3 4 5]", got)
	}
}

// recordSeqs lists the sequences of the recovered capture records.
func recordSeqs(rec *store.Recovery) []uint64 {
	seqs := make([]uint64, len(rec.Records))
	for i, r := range rec.Records {
		seqs[i] = r.Seq
	}
	return seqs
}

// groupCommitSurvives is the group-commit loss scenario: under SyncEvery 4
// three appends return nil with their frames still buffered, then the
// fourth append's group flush (a write) or fsync fails once. Appends that
// returned nil must not be lost to a later fault: the store rewrites all
// four frames into a fresh segment, so a crash right after Sync gives back
// seqs 1..4, each exactly once.
func groupCommitSurvives(t *testing.T, op fstest.Op) {
	b := fstest.New()
	s, _ := openTest(t, b, 4)
	appendN(t, s, 0, 3)
	b.FailAfter(op, 1)
	if err := s.AppendCapture(testCapture(3)); err != nil {
		t.Fatalf("append whose group %s failed once: %v, want the store's retry to land it", op, err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	b.Crash(0)
	s2, rec := openTest(t, b, 4)
	defer func() { _ = s2.Close() }()
	if got := recordSeqs(rec); !reflect.DeepEqual(got, []uint64{1, 2, 3, 4}) {
		t.Fatalf("recovered seqs %v, want [1 2 3 4]", got)
	}
}

func TestGroupCommitSurvivesFlushFault(t *testing.T) { groupCommitSurvives(t, fstest.OpWrite) }

func TestGroupCommitSurvivesFsyncFault(t *testing.T) { groupCommitSurvives(t, fstest.OpSync) }

// TestRewrittenFramesReplayOnce: when only the fsync failed, the group's
// frames landed in the old segment as well as in the retry's. Both copies
// survive a clean reopen; recovery and ReadLog keep the first of each
// sequence.
func TestRewrittenFramesReplayOnce(t *testing.T) {
	b := fstest.New()
	s, _ := openTest(t, b, 4)
	appendN(t, s, 0, 7) // 1..4 synced, 5..7 buffered
	b.FailAfter(fstest.OpSync, 1)
	appendN(t, s, 7, 1) // the group flush lands, its fsync fails
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"wal-0000000000000001.log", "wal-0000000000000005.log"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("segments %v, want %v (the group rewritten into its own)", names, want)
	}
	s2, rec := openTest(t, b, 4)
	defer func() { _ = s2.Close() }()
	want := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if got := recordSeqs(rec); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered seqs %v, want %v", got, want)
	}
	log, err := store.ReadLog(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Captures) != len(want) {
		t.Fatalf("ReadLog kept %d captures, want %d", len(log.Captures), len(want))
	}
}

// TestOpenAgreesWithReadLog is the differential test of the WAL's two
// readers. One recording holds a checkpoint in the middle, a group
// rewritten after a failed fsync, rotations, sim-hours records, a profile
// epilogue and a torn last segment. Past the checkpoint, Open must recover
// exactly the captures, sim hours, torn count and meta that ReadLog reads.
func TestOpenAgreesWithReadLog(t *testing.T) {
	b := fstest.New()
	s, _, err := store.Open(store.Options{
		Backend: b, SyncEvery: 4, Meta: "test-meta", Metrics: metrics.NewRegistry(), RetainAll: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	appendN(t, s, 0, 3)                     // 1..3
	must(s.AppendRotation(testRotation(0))) // 4: the group syncs
	must(s.AppendSimHours(2))               // 5
	must(s.WriteCheckpoint(&store.Checkpoint{Components: map[string][]byte{"state": {1}}}))
	atCheckpoint, err := store.ReadLog(b)
	must(err)
	appendN(t, s, 3, 4)                     // 6..9, synced in wal-6
	must(s.AppendRotation(testRotation(1))) // 10
	must(s.AppendSimHours(3))               // 11
	appendN(t, s, 7, 1)                     // 12
	b.FailAfter(fstest.OpSync, 1)
	appendN(t, s, 8, 1) // 13: wal-6 keeps 10..13, which are rewritten into wal-10
	must(s.AppendProfiles([]*socialnet.Account{{ID: 7, ScreenName: "final"}, nil}))
	appendN(t, s, 9, 2) // 15, 16
	must(s.Close())
	names, err := b.List()
	must(err)
	if want := []string{"ckpt-0000000000000005.ckpt", "wal-0000000000000001.log",
		"wal-0000000000000006.log", "wal-0000000000000010.log"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("files %v, want %v", names, want)
	}
	last := names[len(names)-1]
	if !b.CorruptSynced(last, b.Size(last)-1) { // tear seq 16's frame
		t.Fatalf("no segment %s", last)
	}

	s2, rec := openTest(t, b, 4)
	defer func() { _ = s2.Close() }()
	log, err := store.ReadLog(b)
	must(err)
	if rec.Checkpoint == nil || rec.Checkpoint.Seq != 5 {
		t.Fatalf("recovered checkpoint %+v, want seq 5", rec.Checkpoint)
	}
	var past []*store.CaptureRecord
	for _, c := range log.Captures {
		if c.Seq > rec.Checkpoint.Seq {
			past = append(past, c)
		}
	}
	if !reflect.DeepEqual(rec.Records, past) {
		t.Errorf("Open recovered seqs %v, ReadLog reads %v past the checkpoint", recordSeqs(rec), recordSeqs(&store.Recovery{Records: past}))
	}
	if got, want := rec.SimHours, log.SimHours-atCheckpoint.SimHours; got != want || got != 3 {
		t.Errorf("Open recovered %d sim hours, ReadLog reads %d past the checkpoint, want 3", got, want)
	}
	if rec.Torn != log.Torn || rec.Torn != 1 {
		t.Errorf("torn segments: Open %d, ReadLog %d, want 1", rec.Torn, log.Torn)
	}
	if rec.Meta != log.Meta || rec.Meta != "test-meta" {
		t.Errorf("meta: Open %q, ReadLog %q", rec.Meta, log.Meta)
	}
	// The fixture holds what it claims: the rewritten group's copies, the
	// schedule records, and the torn frame, which neither reader admits.
	if want := []uint64{6, 7, 8, 9, 12, 13, 15}; !reflect.DeepEqual(recordSeqs(rec), want) {
		t.Errorf("recovered seqs %v, want %v", recordSeqs(rec), want)
	}
	if s2.Seq() != 15 {
		t.Errorf("reopened store at seq %d, want 15", s2.Seq())
	}
	if len(log.Rotations) != 2 || log.Profiles[7] == nil || log.Profiles[7].ScreenName != "final" {
		t.Errorf("ReadLog kept %d rotations and profiles %v", len(log.Rotations), log.Profiles)
	}
}

func TestShortReadsRecover(t *testing.T) {
	b := fstest.New()
	s, _ := openTest(t, b, 1)
	appendN(t, s, 0, 12)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b.ReadChunk = 3 // serve recovery three bytes at a time
	s2, rec := openTest(t, b, 1)
	defer func() { _ = s2.Close() }()
	if len(rec.Records) != 12 {
		t.Fatalf("recovered %d records under short reads, want 12", len(rec.Records))
	}
}

func TestLockExcludesSecondOpen(t *testing.T) {
	b := fstest.New()
	s, _ := openTest(t, b, 1)
	_, _, err := store.Open(store.Options{Backend: b})
	if !errors.Is(err, store.ErrLocked) {
		t.Fatalf("second Open: %v, want ErrLocked", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := openTest(t, b, 1)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMetaMismatchRefusesOpen(t *testing.T) {
	b := fstest.New()
	s, _ := openTest(t, b, 1)
	appendN(t, s, 0, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err := store.Open(store.Options{Backend: b, Meta: "other-config"})
	if !errors.Is(err, store.ErrMetaMismatch) {
		t.Fatalf("Open with foreign meta: %v, want ErrMetaMismatch", err)
	}
}

func TestCheckpointPrunesHistory(t *testing.T) {
	b := fstest.New()
	s, _ := openTest(t, b, 1)
	for round := 0; round < 4; round++ {
		appendN(t, s, round*10, 10)
		if err := s.WriteCheckpoint(&store.Checkpoint{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	var ckpts, segs int
	for _, n := range names {
		switch filepath.Ext(n) {
		case ".ckpt":
			ckpts++
		case ".log":
			segs++
		}
	}
	if ckpts != 2 {
		t.Errorf("retained %d checkpoints, want 2 (names: %v)", ckpts, names)
	}
	if segs > 2 {
		t.Errorf("retained %d segments, want <= 2 (names: %v)", segs, names)
	}
	s2, rec := openTest(t, b, 1)
	defer func() { _ = s2.Close() }()
	if rec.Checkpoint == nil || rec.Checkpoint.Seq != 40 {
		t.Fatalf("checkpoint = %+v, want seq 40", rec.Checkpoint)
	}
	if len(rec.Records) != 0 {
		t.Errorf("replayed %d records, want 0", len(rec.Records))
	}
}

// TestRetainAllKeepsFullHistory is the recording-mode retention property:
// with Options.RetainAll, checkpoint cycles that would normally prune old
// checkpoints and covered WAL segments leave every file in place, so a
// replay reading the log still sees the run's first record.
func TestRetainAllKeepsFullHistory(t *testing.T) {
	b := fstest.New()
	s, _, err := store.Open(store.Options{
		Backend:   b,
		SyncEvery: 1,
		Meta:      "test-meta",
		Metrics:   metrics.NewRegistry(),
		RetainAll: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		appendN(t, s, round*10, 10)
		if err := s.WriteCheckpoint(&store.Checkpoint{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	var ckpts, segs int
	for _, n := range names {
		switch filepath.Ext(n) {
		case ".ckpt":
			ckpts++
		case ".log":
			segs++
		}
	}
	if ckpts != 4 {
		t.Errorf("retained %d checkpoints, want all 4 (names: %v)", ckpts, names)
	}
	if segs < 4 {
		t.Errorf("retained %d segments, want >= 4 (names: %v)", segs, names)
	}
	log, err := store.ReadLog(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Captures) != 40 {
		t.Fatalf("full log has %d captures, want 40", len(log.Captures))
	}
	if got := log.Captures[0].Seq; got != 1 {
		t.Errorf("first surviving capture seq = %d, want 1 (history truncated)", got)
	}
}

func TestAllCheckpointsCorruptWithPrunedHistoryFails(t *testing.T) {
	b := fstest.New()
	s, _ := openTest(t, b, 1)
	for round := 0; round < 3; round++ {
		appendN(t, s, round*5, 5)
		if err := s.WriteCheckpoint(&store.Checkpoint{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, seq := range []int{10, 15} {
		name := fmt.Sprintf("ckpt-%016d.ckpt", seq)
		if !b.CorruptSynced(name, 12) {
			t.Fatalf("could not corrupt %s", name)
		}
	}
	_, _, err := store.Open(store.Options{Backend: b, Meta: "test-meta"})
	if err == nil {
		t.Fatal("Open succeeded with no readable checkpoint and pruned WAL")
	}
}

func TestSimHoursJournal(t *testing.T) {
	b := fstest.New()
	s, _ := openTest(t, b, 1)
	for i := 0; i < 5; i++ {
		if err := s.AppendSimHours(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec := openTest(t, b, 1)
	if rec.SimHours != 5 {
		t.Fatalf("SimHours = %d, want 5", rec.SimHours)
	}
	// Hours and captures share the sequence space, so a checkpoint
	// covers both.
	if err := s2.WriteCheckpoint(&store.Checkpoint{}); err != nil {
		t.Fatal(err)
	}
	if err := s2.AppendSimHours(2); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, rec3 := openTest(t, b, 1)
	defer func() { _ = s3.Close() }()
	if rec3.SimHours != 2 {
		t.Errorf("post-checkpoint SimHours = %d, want 2", rec3.SimHours)
	}
}

func TestDirBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := store.Open(store.Options{Dir: dir, Meta: "disk-meta",
		Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatalf("Open(dir): %v", err)
	}
	if rec.Checkpoint != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered: %+v", rec)
	}
	for i := 0; i < 10; i++ {
		if err := s.AppendCapture(testCapture(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteCheckpoint(&store.Checkpoint{TweetWatermark: 7,
		Components: map[string][]byte{"x": {1, 2, 3}}}); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 13; i++ {
		if err := s.AppendCapture(testCapture(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec2, err := store.Open(store.Options{Dir: dir, Meta: "disk-meta",
		Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = s2.Close() }()
	if rec2.Checkpoint == nil || rec2.Checkpoint.Seq != 10 {
		t.Fatalf("checkpoint = %+v", rec2.Checkpoint)
	}
	if len(rec2.Records) != 3 {
		t.Fatalf("replayed %d, want 3", len(rec2.Records))
	}
}

func TestDirLockStaleReclaim(t *testing.T) {
	dir := t.TempDir()
	// A lock file owned by a long-dead pid must not block recovery.
	if err := os.WriteFile(filepath.Join(dir, "LOCK"), []byte("999999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _, err := store.Open(store.Options{Dir: dir, Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatalf("Open over stale lock: %v", err)
	}
	// Our own live pid, though, is an active owner.
	d, err := store.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Lock(); !errors.Is(err, store.ErrLocked) {
		t.Fatalf("Lock under live owner: %v, want ErrLocked", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkpointBackends runs a test over the local-disk backend and the
// fault-injection double.
func checkpointBackends(t *testing.T, fn func(t *testing.T, b store.Backend)) {
	t.Run("dir", func(t *testing.T) {
		d, err := store.NewDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fn(t, d)
	})
	t.Run("fstest", func(t *testing.T) { fn(t, fstest.New()) })
}

// A checkpoint holds the whole derived state and outgrows the WAL's 16 MiB
// per-record bound within ten simulated hours at bench scale; the reader
// used to apply that bound to checkpoints the writer had happily written,
// leaving such a store impossible to reopen.
func TestLargeCheckpointReopens(t *testing.T) {
	state := make([]byte, store.MaxRecordSize+(1<<20))
	rand.New(rand.NewSource(1)).Read(state)
	checkpointBackends(t, func(t *testing.T, b store.Backend) {
		s, _ := openTest(t, b, 1)
		// The third checkpoint is the large one; by then the WAL prefix
		// is pruned, so an unreadable newest checkpoint shows as a
		// fallback.
		for round := 0; round < 3; round++ {
			appendN(t, s, round*5, 5)
			ck := &store.Checkpoint{Components: map[string][]byte{"labels": state[:1<<10]}}
			if round == 2 {
				ck.Components["labels"] = state
			}
			if err := s.WriteCheckpoint(ck); err != nil {
				t.Fatalf("WriteCheckpoint: %v", err)
			}
		}
		appendN(t, s, 15, 2)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2, rec := openTest(t, b, 1)
		defer func() { _ = s2.Close() }()
		if rec.Fallbacks != 0 || rec.Checkpoint == nil || rec.Checkpoint.Seq != 15 {
			t.Fatalf("recovered checkpoint %+v with %d fallbacks, want seq 15 and none",
				rec.Checkpoint, rec.Fallbacks)
		}
		if !bytes.Equal(rec.Checkpoint.Components["labels"], state) {
			t.Error("large component did not round-trip")
		}
		if len(rec.Records) != 2 {
			t.Errorf("replayed %d records past the checkpoint, want 2", len(rec.Records))
		}
	})
}

// A checkpoint whose header claims more payload than the file holds — a
// torn write, or a corrupt length field — is rejected without allocating
// the claimed length, and recovery falls back to the previous checkpoint.
func TestLyingCheckpointHeaderFallsBack(t *testing.T) {
	header := func(length uint32) []byte {
		hdr := make([]byte, 16, 16+100)
		copy(hdr, "PHCKP003")
		binary.LittleEndian.PutUint32(hdr[8:12], length)
		return append(hdr, make([]byte, 100)...)
	}
	for _, tc := range []struct {
		name    string
		content []byte
	}{
		{"truncated payload", header(store.MaxCheckpointSize)},
		{"over the bound", header(store.MaxCheckpointSize + 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkpointBackends(t, func(t *testing.T, b store.Backend) {
				s, _ := openTest(t, b, 1)
				for round := 0; round < 2; round++ {
					appendN(t, s, round*5, 5)
					ck := &store.Checkpoint{Components: map[string][]byte{"v": {byte(round)}}}
					if err := s.WriteCheckpoint(ck); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				putCheckpointFile(t, b, 10, tc.content)

				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				s2, rec := openTest(t, b, 1)
				runtime.ReadMemStats(&after)
				defer func() { _ = s2.Close() }()
				if rec.Fallbacks != 1 || rec.Checkpoint == nil || rec.Checkpoint.Seq != 5 {
					t.Fatalf("recovered checkpoint %+v with %d fallbacks, want seq 5 after 1",
						rec.Checkpoint, rec.Fallbacks)
				}
				if len(rec.Records) != 5 {
					t.Errorf("replayed %d records, want 5 (seqs 6..10)", len(rec.Records))
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
					t.Errorf("reopening allocated %d MB for a 116-byte file", grew>>20)
				}
			})
		})
	}
}

// putCheckpointFile writes content as the checkpoint file for seq.
func putCheckpointFile(t *testing.T, b store.Backend, seq int, content []byte) {
	t.Helper()
	f, err := b.Create(fmt.Sprintf("ckpt-%016d.ckpt", seq))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(content); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// Checkpoints written by older builds carry an older magic: PHCKP001 (gob
// sections) or PHCKP002 (captures and label users as their live profiles
// at the cut). Recovery refuses each by that name, not as corruption: a
// fallback records the reason on the store_recover span, and when no
// checkpoint is readable and the WAL prefix is pruned, Open's error says
// which format it found.
func TestOldCheckpointFormatRefusedByName(t *testing.T) {
	magics := []string{"PHCKP001", "PHCKP002"}
	oldFile := func(magic string) []byte {
		old := make([]byte, 16, 64)
		copy(old, magic)
		binary.LittleEndian.PutUint32(old[8:12], 48)
		return append(old, bytes.Repeat([]byte{0x2a}, 48)...)
	}
	checkpointBackends(t, func(t *testing.T, b store.Backend) {
		s, _ := openTest(t, b, 1)
		for round := 0; round < 3; round++ {
			appendN(t, s, round*5, 5)
			ck := &store.Checkpoint{Components: map[string][]byte{"v": {byte(round)}}}
			if err := s.WriteCheckpoint(ck); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		for _, magic := range magics {
			putCheckpointFile(t, b, 15, oldFile(magic))
			tracer := trace.New(trace.Config{Enabled: true})
			s2, rec, err := store.Open(store.Options{
				Backend: b, Meta: "test-meta", Metrics: metrics.NewRegistry(), Tracer: tracer,
			})
			if err != nil {
				t.Fatalf("Open with one %s checkpoint: %v", magic, err)
			}
			if rec.Fallbacks != 1 || rec.Checkpoint == nil || rec.Checkpoint.Seq != 10 {
				t.Fatalf("%s: recovered checkpoint %+v with %d fallbacks, want seq 10 after 1",
					magic, rec.Checkpoint, rec.Fallbacks)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			var reason string
			for _, tr := range tracer.Recent() {
				if sp, ok := tr.Span("store_recover"); ok {
					for _, kv := range sp.Attrs {
						if kv.Key == "checkpoint_fallback" {
							reason = kv.Value
						}
					}
				}
			}
			if !strings.Contains(reason, magic) {
				t.Errorf("recorded fallback reason %q does not name the old format %s", reason, magic)
			}
		}

		for _, magic := range magics {
			putCheckpointFile(t, b, 15, oldFile(magic))
			putCheckpointFile(t, b, 10, oldFile(magic))
			_, _, err := store.Open(store.Options{Backend: b, Meta: "test-meta", Metrics: metrics.NewRegistry()})
			if err == nil || !strings.Contains(err.Error(), magic) ||
				!strings.Contains(err.Error(), "all 2 checkpoints unreadable and WAL history pruned") {
				t.Fatalf("Open with only %s checkpoints and a pruned WAL: %v", magic, err)
			}
		}
	})
}
