package store

import (
	"errors"
	"fmt"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/codec"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// RotationRecord is the WAL form of one hourly node-set rotation: the
// per-group node counts the monitor selected for the coming period. A
// replayed run cannot re-screen the recording's world, so it re-accrues
// these counts instead — reproducing the PGE node-hours denominator bit
// for bit.
type RotationRecord struct {
	// Seq is the record's position in the WAL (assigned by Append).
	Seq uint64
	// Hour is the simulated hour the rotation opened.
	Hour int
	// Now is the simulated time of the rotation.
	Now time.Time
	// Counts is the number of nodes selected per monitor group, indexed
	// like Monitor.Groups.
	Counts []int
}

// encodeRotation appends a rotation payload to buf.
func encodeRotation(buf []byte, rec *RotationRecord) []byte {
	buf = codec.AppendUvarint(buf, rec.Seq)
	buf = codec.AppendVarint(buf, int64(rec.Hour))
	buf = codec.AppendTime(buf, rec.Now)
	return codec.AppendInts(buf, rec.Counts)
}

// DecodeRotation decodes one rotation payload (RecordRotation type).
func DecodeRotation(payload []byte) (*RotationRecord, error) {
	d := codec.NewDecoder(payload)
	rec := &RotationRecord{}
	rec.Seq = d.Uvarint()
	rec.Hour = d.Int()
	rec.Now = d.Time()
	rec.Counts = d.Ints()
	if err := d.Finish("rotation record"); err != nil {
		return nil, err
	}
	return rec, nil
}

// encodeProfiles appends a profile-epilogue payload to buf: the final
// live profiles of the accounts the run captured from.
func encodeProfiles(buf []byte, seq uint64, accounts []*socialnet.Account) []byte {
	buf = codec.AppendUvarint(buf, seq)
	buf = codec.AppendUvarint(buf, uint64(len(accounts)))
	for _, a := range accounts {
		buf = codec.AppendAccount(buf, a)
	}
	return buf
}

// DecodeProfiles decodes one profile-epilogue payload (RecordProfiles).
func DecodeProfiles(payload []byte) (seq uint64, accounts []*socialnet.Account, err error) {
	d := codec.NewDecoder(payload)
	seq = d.Uvarint()
	if n := d.Count(1); n > 0 {
		accounts = make([]*socialnet.Account, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			accounts = append(accounts, d.Account())
		}
	}
	if err := d.Finish("profiles record"); err != nil {
		return 0, nil, err
	}
	return seq, accounts, nil
}

// AppendRotation logs one node-set rotation.
func (s *Store) AppendRotation(rec *RotationRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec.Seq = s.seq + 1
	s.buf = encodeRotation(s.buf[:0], rec)
	return s.appendLocked(RecordRotation, s.buf)
}

// AppendProfiles logs the end-of-run profile epilogue.
func (s *Store) AppendProfiles(accounts []*socialnet.Account) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = encodeProfiles(s.buf[:0], s.seq+1, accounts)
	return s.appendLocked(RecordProfiles, s.buf)
}

// Log is a full, read-only view of a capture WAL — everything ReadLog
// decoded from every segment still on disk, oldest first. It is the
// ingest contract of the replay source: captures in original extraction
// order, the rotation schedule, and the end-of-run profile epilogue.
type Log struct {
	// Captures are all capture records in append order, retry duplicates
	// (same sequence) removed.
	Captures []*CaptureRecord
	// Rotations are all node-set rotations in append order.
	Rotations []*RotationRecord
	// Profiles maps account id to the final live profile from the newest
	// epilogue record (nil when the run crashed before writing one).
	Profiles map[socialnet.AccountID]*socialnet.Account
	// SimHours is the summed sim-time advance journaled in the log.
	SimHours int
	// Meta is the recording configuration's fingerprint.
	Meta string
	// Torn counts segments ending in a torn write.
	Torn int
}

// ReadLog reads every WAL segment of a backend without locking or
// mutating it. Unlike Open — which recovers the newest state and skips
// checkpoint-covered segments — ReadLog returns the full recorded
// history, which is what a replay needs; recording runs retain every
// segment (Options.RetainAll), so the history is guaranteed complete.
func ReadLog(b Backend) (*Log, error) {
	names, err := b.List()
	if err != nil {
		return nil, fmt.Errorf("store: list: %w", err)
	}
	log, _, err := walkLog(b, listSeqs(names, segmentPrefix, segmentSuffix), 0, true)
	return log, err
}

// walkLog reads the segments named by their first sequences, in order,
// into a Log: the one WAL reader, behind both ReadLog and Open. A
// sequenced record is admitted only when its sequence is past the last one
// admitted, counting from after, which drops the records a checkpoint
// covers and the second copy of a frame rewritten after a failed sync.
// Rotation and profile payloads are kept only when schedule is set;
// recovery re-runs the simulation, which rotates again, so it needs their
// sequences alone. walkLog also returns the last sequence admitted.
func walkLog(b Backend, segments []uint64, after uint64, schedule bool) (*Log, uint64, error) {
	log, last := &Log{}, after
	admit := func(seq uint64) bool {
		if seq <= last {
			return false
		}
		last = seq
		return true
	}
	for _, first := range segments {
		f, err := b.Open(segmentName(first))
		if err != nil {
			return nil, 0, fmt.Errorf("store: open segment %d: %w", first, err)
		}
		err = readSegment(f, func(typ byte, payload []byte) error {
			var err error
			switch typ {
			case RecordCapture:
				var cr *CaptureRecord
				if cr, err = DecodeCapture(payload); err == nil && admit(cr.Seq) {
					log.Captures = append(log.Captures, cr)
				}
			case RecordSimHours:
				var seq uint64
				var hours int
				if seq, hours, err = decodeSimHours(payload); err == nil && admit(seq) {
					log.SimHours += hours
				}
			case RecordRotation:
				var rr *RotationRecord
				if rr, err = DecodeRotation(payload); err == nil && admit(rr.Seq) && schedule {
					log.Rotations = append(log.Rotations, rr)
				}
			case RecordProfiles:
				var seq uint64
				var accounts []*socialnet.Account
				if seq, accounts, err = DecodeProfiles(payload); err == nil && admit(seq) && schedule {
					log.addProfiles(accounts)
				}
			case RecordMeta:
				if log.Meta == "" {
					log.Meta = string(payload)
				}
			default:
				err = fmt.Errorf("unknown record type %d", typ)
			}
			if err != nil {
				// The frame passed its checksum, so this is a format bug
				// or adversarial corruption, not a torn write.
				return fmt.Errorf("store: segment %d: %w", first, err)
			}
			return nil
		})
		cerr := f.Close()
		if errors.Is(err, ErrTornTail) {
			log.Torn++
			err = nil
		}
		if err == nil {
			err = cerr
		}
		if err != nil {
			return nil, 0, err
		}
	}
	return log, last, nil
}

// addProfiles files an epilogue's accounts by id, over older epilogues'.
func (log *Log) addProfiles(accounts []*socialnet.Account) {
	if log.Profiles == nil {
		log.Profiles = make(map[socialnet.AccountID]*socialnet.Account, len(accounts))
	}
	for _, a := range accounts {
		if a != nil {
			log.Profiles[a.ID] = a
		}
	}
}
