package store

import (
	"errors"
	"fmt"
	"time"

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
	buf = appendUvarint(buf, rec.Seq)
	buf = appendVarint(buf, int64(rec.Hour))
	buf = appendTime(buf, rec.Now)
	buf = appendUvarint(buf, uint64(len(rec.Counts)))
	for _, n := range rec.Counts {
		buf = appendUvarint(buf, uint64(n))
	}
	return buf
}

// DecodeRotation decodes one rotation payload (RecordRotation type).
func DecodeRotation(payload []byte) (*RotationRecord, error) {
	d := &decoder{b: payload}
	rec := &RotationRecord{}
	rec.Seq = d.uvarint()
	rec.Hour = int(d.varint())
	rec.Now = d.time()
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)) {
		d.err = errShortRecord
	}
	if d.err == nil && n > 0 {
		rec.Counts = make([]int, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			rec.Counts = append(rec.Counts, int(d.uvarint()))
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("store: %d trailing bytes after rotation record", len(d.b))
	}
	return rec, nil
}

// encodeProfiles appends a profile-epilogue payload to buf: the final
// live profiles of the accounts the run captured from.
func encodeProfiles(buf []byte, seq uint64, accounts []*socialnet.Account) []byte {
	buf = appendUvarint(buf, seq)
	buf = appendUvarint(buf, uint64(len(accounts)))
	for _, a := range accounts {
		buf = appendAccount(buf, a)
	}
	return buf
}

// DecodeProfiles decodes one profile-epilogue payload (RecordProfiles).
func DecodeProfiles(payload []byte) (seq uint64, accounts []*socialnet.Account, err error) {
	d := &decoder{b: payload}
	seq = d.uvarint()
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)) {
		d.err = errShortRecord
	}
	if d.err == nil && n > 0 {
		accounts = make([]*socialnet.Account, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			accounts = append(accounts, d.account())
		}
	}
	if d.err != nil {
		return 0, nil, d.err
	}
	if len(d.b) != 0 {
		return 0, nil, fmt.Errorf("store: %d trailing bytes after profiles record", len(d.b))
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
	log := &Log{}
	// A frame rewritten after a failed sync can persist under the same
	// sequence in two segments; every record type keeps the first copy.
	var lastSeq uint64
	next := func(seq uint64) bool {
		if seq <= lastSeq {
			return false
		}
		lastSeq = seq
		return true
	}
	for _, first := range listSeqs(names, segmentPrefix, segmentSuffix) {
		f, err := b.Open(segmentName(first))
		if err != nil {
			return nil, fmt.Errorf("store: open segment %d: %w", first, err)
		}
		err = readSegment(f, func(typ byte, payload []byte) error {
			switch typ {
			case RecordCapture:
				cr, err := DecodeCapture(payload)
				if err != nil {
					return fmt.Errorf("store: segment %d: %w", first, err)
				}
				if next(cr.Seq) {
					log.Captures = append(log.Captures, cr)
				}
			case RecordRotation:
				rr, err := DecodeRotation(payload)
				if err != nil {
					return fmt.Errorf("store: segment %d: %w", first, err)
				}
				if next(rr.Seq) {
					log.Rotations = append(log.Rotations, rr)
				}
			case RecordProfiles:
				seq, accounts, err := DecodeProfiles(payload)
				if err != nil {
					return fmt.Errorf("store: segment %d: %w", first, err)
				}
				if !next(seq) {
					return nil
				}
				if log.Profiles == nil {
					log.Profiles = make(map[socialnet.AccountID]*socialnet.Account, len(accounts))
				}
				for _, a := range accounts {
					if a != nil {
						log.Profiles[a.ID] = a
					}
				}
			case RecordSimHours:
				seq, hours, err := decodeSimHours(payload)
				if err != nil {
					return fmt.Errorf("store: segment %d: %w", first, err)
				}
				if next(seq) {
					log.SimHours += hours
				}
			case RecordMeta:
				if log.Meta == "" {
					log.Meta = string(payload)
				}
			default:
				return fmt.Errorf("store: segment %d: unknown record type %d", first, typ)
			}
			return nil
		})
		cerr := f.Close()
		if errors.Is(err, ErrTornTail) {
			log.Torn++
			err = nil
		}
		if err != nil {
			return nil, err
		}
		if cerr != nil {
			return nil, cerr
		}
	}
	return log, nil
}
