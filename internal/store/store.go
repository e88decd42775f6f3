package store

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// Options configures Open.
type Options struct {
	// Dir is the local directory to store state in; ignored when Backend
	// is set.
	Dir string
	// Backend overrides the local-disk backend (fault-injection doubles,
	// blob stores).
	Backend Backend
	// SyncEvery groups WAL commits: the log fsyncs after every SyncEvery
	// appends (and on explicit Sync). <= 0 means 1, i.e. every append is
	// durable before AppendCapture returns. The store keeps the frames of
	// the open group in memory until their fsync succeeds, so a failed
	// flush or fsync rewrites them into a fresh segment instead of losing
	// appends that already returned nil.
	SyncEvery int
	// Meta is the owner's configuration fingerprint (seed, spec hash).
	// It is stamped into every WAL segment; reopening a store whose
	// recorded fingerprint differs fails with ErrMetaMismatch rather
	// than replaying another configuration's history.
	Meta string
	// Metrics receives the store's counters; nil uses metrics.Default().
	Metrics *metrics.Registry
	// Tracer receives checkpoint/recovery spans; nil disables them (a
	// nil tracer is a valid no-op receiver).
	Tracer *trace.Tracer
	// RetainAll suspends compaction pruning: checkpoints still rotate the
	// log, but no checkpoint or WAL segment is ever removed. Recording
	// runs set this — a replayable recording is only as good as its
	// oldest surviving segment, and pruning would silently truncate the
	// history a ReplaySource re-feeds.
	RetainAll bool
}

// Recovery is what Open reconstructed from disk.
type Recovery struct {
	// Checkpoint is the newest decodable checkpoint, nil when none.
	Checkpoint *Checkpoint
	// Records are the WAL capture records past the checkpoint, in append
	// order, each sequence once (a frame rewritten after a failed sync can
	// sit in two segments; the second copy is dropped).
	Records []*CaptureRecord
	// SimHours is the summed sim-time advance past the checkpoint
	// (twitterd's journal records).
	SimHours int
	// Torn counts segments that ended in a torn write.
	Torn int
	// Fallbacks counts checkpoints that failed verification and were
	// skipped in favour of an older one.
	Fallbacks int
	// Meta is the configuration fingerprint recorded in the WAL ("" for
	// a fresh store).
	Meta string
}

// ErrMetaMismatch is returned by Open when the on-disk configuration
// fingerprint differs from Options.Meta.
var ErrMetaMismatch = errors.New("store: configuration fingerprint mismatch")

// Store is a durable WAL + checkpoint store over a Backend. All methods
// are safe for concurrent use; append order under concurrency is the
// order the internal lock is acquired.
type Store struct {
	b       Backend
	release func() error
	obs     *observer

	mu          sync.Mutex
	seq         uint64 // last assigned record sequence
	lastCkpt    uint64 // sequence the newest checkpoint covers
	lastSyncErr string // most recent fsync failure ("" = last sync ok)
	w           *segmentWriter
	// unsynced holds every frame appended since the last successful sync,
	// back to back; firstUnsynced is the sequence of the oldest and
	// pending their count. Under group commit an append returns before its
	// frame is durable, so when the flush or fsync that should harden the
	// group fails, the next segment starts by rewriting all of them.
	unsynced      []byte
	firstUnsynced uint64
	pending       int
	syncEvery     int
	retainAll     bool
	meta          string
	buf           []byte // payload scratch, reused across appends
	closed        bool
}

// Status is the operator-facing durability snapshot surfaced through
// /healthz (metrics.WALHealth): whether disk state is advancing and
// whether the last fsync worked.
type Status struct {
	// LastSeq is the last assigned record sequence.
	LastSeq uint64
	// LastCheckpointSeq is the sequence the newest checkpoint covers
	// (0 = none yet this process lifetime or on disk).
	LastCheckpointSeq uint64
	// Segments is the number of WAL segment files currently on disk.
	Segments int
	// LastSyncError is the most recent fsync failure, "" when the last
	// sync succeeded.
	LastSyncError string
}

// Status reports the store's durability state. The segment count comes
// from a backend listing, so the call does disk metadata I/O — probe
// frequency, not hot path.
func (s *Store) Status() Status {
	s.mu.Lock()
	st := Status{
		LastSeq:           s.seq,
		LastCheckpointSeq: s.lastCkpt,
		LastSyncError:     s.lastSyncErr,
	}
	s.mu.Unlock()
	if names, err := s.b.List(); err == nil {
		st.Segments = len(listSeqs(names, segmentPrefix, segmentSuffix))
	}
	return st
}

// HealthExtra adapts Status to the /healthz WAL section — the hook the
// daemons hand to metrics.HealthHandlerFunc when running with -store-dir.
func (s *Store) HealthExtra() func(*metrics.Health) {
	return func(h *metrics.Health) {
		st := s.Status()
		h.WAL = &metrics.WALHealth{
			LastSeq:           st.LastSeq,
			LastCheckpointSeq: st.LastCheckpointSeq,
			Segments:          st.Segments,
			LastSyncError:     st.LastSyncError,
		}
	}
}

// Open locks the store, recovers prior state (newest valid checkpoint
// plus the WAL records past it), and readies the log for appends. The
// caller owns applying Recovery to its in-memory state before appending.
func Open(opts Options) (*Store, *Recovery, error) {
	b := opts.Backend
	if b == nil {
		d, err := NewDir(opts.Dir)
		if err != nil {
			return nil, nil, err
		}
		b = d
	}
	release, err := b.Lock()
	if err != nil {
		return nil, nil, err
	}
	s := &Store{
		b:         b,
		release:   release,
		obs:       newObserver(opts.Metrics, opts.Tracer),
		syncEvery: opts.SyncEvery,
		retainAll: opts.RetainAll,
		meta:      opts.Meta,
	}
	if s.syncEvery <= 0 {
		s.syncEvery = 1
	}
	rec, err := s.recover()
	if err != nil {
		_ = release()
		return nil, nil, err
	}
	if opts.Meta != "" && rec.Meta != "" && rec.Meta != opts.Meta {
		_ = release()
		return nil, nil, fmt.Errorf("%w: disk %q, config %q",
			ErrMetaMismatch, rec.Meta, opts.Meta)
	}
	return s, rec, nil
}

// recover loads the newest valid checkpoint and replays the WAL past it.
func (s *Store) recover() (*Recovery, error) {
	start := time.Now()
	tr := s.obs.tracer.Start("store_recover")
	sp := tr.StartSpan("store_recover")
	defer func() {
		sp.End()
		tr.Finish()
	}()

	names, err := s.b.List()
	if err != nil {
		return nil, fmt.Errorf("store: list: %w", err)
	}
	// Stray temp files are half-written checkpoints from a crash mid-
	// publish; the rename never happened, so they are garbage.
	for _, n := range names {
		if len(n) > len(tmpSuffix) && n[len(n)-len(tmpSuffix):] == tmpSuffix {
			_ = s.b.Remove(n)
		}
	}

	rec := &Recovery{}
	ckptSeqs := listSeqs(names, checkpointPrefix, checkpointSuffix)
	var ckptErr error // why the oldest checkpoint tried was rejected
	for i := len(ckptSeqs) - 1; i >= 0 && rec.Checkpoint == nil; i-- {
		ck, err := readCheckpointFile(s.b, ckptSeqs[i])
		if err != nil {
			// Fall back to the previous checkpoint; the WAL segments it
			// covers are still on disk (pruning trails by one).
			rec.Fallbacks++
			s.obs.checkpointFallbacks.Inc()
			ckptErr = err
			continue
		}
		rec.Checkpoint = ck
	}
	segSeqs := listSeqs(names, segmentPrefix, segmentSuffix)
	if rec.Checkpoint == nil && len(ckptSeqs) > 0 &&
		(len(segSeqs) == 0 || segSeqs[0] > 1) {
		// Every checkpoint failed verification and the early WAL was
		// already pruned: full replay is impossible, and pretending the
		// pruned prefix never happened would silently diverge.
		return nil, fmt.Errorf("store: all %d checkpoints unreadable and WAL history pruned (%w)", len(ckptSeqs), ckptErr)
	}
	var base uint64
	if rec.Checkpoint != nil {
		base = rec.Checkpoint.Seq
	}
	s.seq = base
	s.lastCkpt = base

	for i, first := range segSeqs {
		if i+1 < len(segSeqs) && segSeqs[i+1] <= base+1 {
			// Every record in this segment has seq < the next segment's
			// first (or is rewritten there), hence <= base: fully covered
			// by the checkpoint.
			continue
		}
		if err := s.replaySegment(first, rec); err != nil {
			return nil, err
		}
	}
	s.obs.tailRecords.Set(float64(s.seq - base))
	s.obs.recoverySeconds.ObserveDuration(start)
	sp.SetAttr("records", fmt.Sprint(len(rec.Records)))
	sp.SetAttr("torn", fmt.Sprint(rec.Torn))
	return rec, nil
}

// replaySegment streams one segment into rec, keeping records past s.seq.
func (s *Store) replaySegment(first uint64, rec *Recovery) error {
	f, err := s.b.Open(segmentName(first))
	if err != nil {
		return fmt.Errorf("store: open segment %d: %w", first, err)
	}
	defer func() { _ = f.Close() }()
	// next admits a sequenced record: one past everything seen so far.
	// s.seq starts at the checkpoint's, so this skips both the covered
	// prefix and the second copy of a frame rewritten after a failed sync.
	next := func(seq uint64) bool {
		if seq <= s.seq {
			return false
		}
		s.seq = seq
		return true
	}
	err = readSegment(f, func(typ byte, payload []byte) error {
		switch typ {
		case RecordCapture:
			cr, err := DecodeCapture(payload)
			if err != nil {
				// The frame passed its checksum, so this is a format
				// bug or adversarial corruption, not a torn write.
				return fmt.Errorf("store: segment %d: %w", first, err)
			}
			if next(cr.Seq) {
				rec.Records = append(rec.Records, cr)
				s.obs.recoveryRecords.Inc()
			}
		case RecordSimHours:
			seq, hours, err := decodeSimHours(payload)
			if err != nil {
				return fmt.Errorf("store: segment %d: %w", first, err)
			}
			if next(seq) {
				rec.SimHours += hours
			}
		case RecordRotation:
			rr, err := DecodeRotation(payload)
			if err != nil {
				return fmt.Errorf("store: segment %d: %w", first, err)
			}
			// Recovery re-runs the simulation, which rotates again; only
			// the sequence matters here. ReadLog is the consumer of the
			// rotation schedule itself.
			next(rr.Seq)
		case RecordProfiles:
			seq, _, err := DecodeProfiles(payload)
			if err != nil {
				return fmt.Errorf("store: segment %d: %w", first, err)
			}
			next(seq)
		case RecordMeta:
			if rec.Meta == "" {
				rec.Meta = string(payload)
			}
		default:
			return fmt.Errorf("store: segment %d: unknown record type %d", first, typ)
		}
		return nil
	})
	if errors.Is(err, ErrTornTail) {
		rec.Torn++
		s.obs.tornTails.Inc()
		return nil
	}
	return err
}

// Seq returns the last assigned record sequence.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// AppendCapture logs one capture, assigning rec.Seq. The record is
// durable once this (under SyncEvery=1) or a later Sync returns nil.
func (s *Store) AppendCapture(rec *CaptureRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec.Seq = s.seq + 1
	s.buf = s.buf[:0]
	s.buf = EncodeCapture(s.buf, rec)
	return s.appendLocked(RecordCapture, s.buf)
}

// AppendSimHours journals a sim-time advance of the given hour count.
func (s *Store) AppendSimHours(hours int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = encodeSimHours(s.buf[:0], s.seq+1, hours)
	return s.appendLocked(RecordSimHours, s.buf)
}

// appendLocked frames one record carrying sequence s.seq+1 and commits it
// to the active segment, fsyncing when the group is full. A write or
// fsync failure there gets the one retry: rotate, rewriting every
// unsynced frame — this one included — into a fresh segment. When that
// fails too the append reports the error; its sequence is still spent if
// the frame reached a segment writer, because a copy may have landed and
// no later record may claim the same sequence. A segment that cannot even
// be created is not retried: the backend is down, and nothing was written.
func (s *Store) appendLocked(typ byte, payload []byte) error {
	if s.closed {
		return errors.New("store: closed")
	}
	mark := len(s.unsynced)
	if s.pending == 0 {
		s.firstUnsynced = s.seq + 1
	}
	s.unsynced = appendFrame(s.unsynced, typ, payload)
	s.pending++
	frame := s.unsynced[mark:]
	written, err := s.commitLocked(frame)
	if err != nil {
		s.unsynced = s.unsynced[:mark]
		s.pending--
		if written {
			s.seq++
		}
		s.obs.appendErrors.Inc()
		return err
	}
	s.seq++
	s.obs.appends.Inc()
	s.obs.walBytes.Add(float64(len(frame)))
	s.obs.tailRecords.Set(float64(s.seq - s.lastCkpt))
	return nil
}

// commitLocked writes frame, the newest unsynced frame, and fsyncs when
// the group is full, rotating once if the active segment is missing or
// fails. written reports whether the frame reached any segment writer.
func (s *Store) commitLocked(frame []byte) (written bool, err error) {
	if s.w != nil && !s.w.broken {
		written = true
		if err = s.w.append(frame); err == nil && s.pending >= s.syncEvery {
			err = s.hardenLocked()
		}
		if err == nil {
			return true, nil
		}
	}
	if err = s.rotateLocked(); err == nil && s.pending >= s.syncEvery {
		err = s.hardenLocked()
	}
	// rotateLocked leaves s.w nil only when the segment was never created.
	return written || s.w != nil, err
}

// rotateLocked retires the active segment and opens the next, rewriting
// every unsynced frame into it under its original sequence. The segment is
// named after the oldest frame it receives, so the naming invariant holds:
// a segment's records either precede the next segment's first sequence or
// are rewritten there, and recovery keeps the first copy of a sequence.
func (s *Store) rotateLocked() error {
	if s.w != nil {
		_ = s.w.close()
		s.w = nil
	}
	first := s.seq + 1
	if s.pending > 0 {
		first = s.firstUnsynced
	}
	w, err := s.openSegmentLocked(first)
	if err != nil {
		return err
	}
	s.w = w
	return w.append(s.unsynced)
}

// openSegmentLocked creates the segment named after first, the sequence
// of the first record it receives, and stamps the meta record. A name
// collision can only hit a segment none of whose records was ever synced
// (a synced record at or past first would have moved firstUnsynced or
// s.seq beyond it), so the truncate loses nothing durable.
func (s *Store) openSegmentLocked(first uint64) (*segmentWriter, error) {
	w, err := newSegmentWriter(s.b, segmentName(first))
	if err != nil {
		return nil, err
	}
	if s.meta != "" {
		frame := appendFrame(nil, RecordMeta, []byte(s.meta))
		if err := w.append(frame); err != nil {
			_ = w.close()
			return nil, err
		}
	}
	return w, nil
}

// Sync makes every appended record durable.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	return s.syncLocked()
}

// syncLocked hardens every unsynced frame, with the same one retry as an
// append: if the active segment is missing or its flush or fsync fails,
// the frames are rewritten into a fresh segment and that one is synced.
func (s *Store) syncLocked() error {
	if s.pending == 0 {
		return nil
	}
	if s.w != nil && !s.w.broken && s.hardenLocked() == nil {
		return nil
	}
	if err := s.rotateLocked(); err != nil {
		return err
	}
	return s.hardenLocked()
}

// hardenLocked flushes and fsyncs the active segment; on success every
// unsynced frame is durable and the buffer that kept them is recycled.
func (s *Store) hardenLocked() error {
	if err := s.w.sync(); err != nil {
		s.obs.syncErrors.Inc()
		s.lastSyncErr = err.Error()
		return err
	}
	s.unsynced, s.pending = s.unsynced[:0], 0
	s.lastSyncErr = ""
	s.obs.syncs.Inc()
	return nil
}

// WriteCheckpoint publishes a consistent cut at the current sequence:
// the WAL is synced first (the checkpoint must never cover records that
// could still be lost), the checkpoint file is written atomically, the
// log rotates, and history covered by the previous retained checkpoint
// is pruned (two checkpoints are kept, so recovery can fall back past a
// corrupt newest one). The caller must be quiescent: no concurrent
// appends between filling ck.Components and WriteCheckpoint returning.
func (s *Store) WriteCheckpoint(ck *Checkpoint) error {
	start := time.Now()
	tr := s.obs.tracer.Start("store_checkpoint")
	sp := tr.StartSpan("store_checkpoint")
	defer func() {
		sp.End()
		tr.Finish()
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	if err := s.syncLocked(); err != nil {
		s.obs.checkpointErrors.Inc()
		return fmt.Errorf("store: checkpoint sync: %w", err)
	}
	ck.Seq = s.seq
	if err := writeCheckpointFile(s.b, ck); err != nil {
		s.obs.checkpointErrors.Inc()
		return err
	}
	// Rotate so the just-covered segment is complete and prunable at the
	// next checkpoint.
	if s.w != nil {
		_ = s.w.close()
		s.w = nil
	}
	s.pruneLocked(ck.Seq)
	s.lastCkpt = ck.Seq
	s.obs.tailRecords.Set(0)
	s.obs.checkpoints.Inc()
	s.obs.checkpointSeconds.ObserveDuration(start)
	sp.SetAttr("seq", fmt.Sprint(ck.Seq))
	return nil
}

// pruneLocked retires history made redundant by the checkpoint just
// written at newSeq: checkpoints beyond the newest two, and WAL segments
// fully covered by the older retained checkpoint. Prune failures are
// deliberately non-fatal — they cost disk, not correctness.
func (s *Store) pruneLocked(newSeq uint64) {
	if s.retainAll {
		return
	}
	names, err := s.b.List()
	if err != nil {
		return
	}
	ckptSeqs := listSeqs(names, checkpointPrefix, checkpointSuffix)
	keepFrom := 0
	if len(ckptSeqs) > 2 {
		keepFrom = len(ckptSeqs) - 2
	}
	for _, seq := range ckptSeqs[:keepFrom] {
		if s.b.Remove(checkpointName(seq)) == nil {
			s.obs.prunedFiles.Inc()
		}
	}
	// The recovery floor is the oldest checkpoint still on disk: every
	// record past it must stay replayable.
	floor := newSeq
	if len(ckptSeqs) > keepFrom {
		floor = ckptSeqs[keepFrom]
	}
	segSeqs := listSeqs(names, segmentPrefix, segmentSuffix)
	for i, first := range segSeqs {
		if i+1 < len(segSeqs) && segSeqs[i+1] <= floor+1 {
			if s.b.Remove(segmentName(first)) == nil {
				s.obs.prunedFiles.Inc()
			}
		}
	}
}

// Close syncs outstanding records, closes the active segment, and
// releases the directory lock.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.syncLocked()
	if s.w != nil {
		if cerr := s.w.close(); err == nil && cerr != nil {
			err = cerr
		}
		s.w = nil
	}
	if rerr := s.release(); err == nil {
		err = rerr
	}
	return err
}
