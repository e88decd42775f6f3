package source

import (
	"errors"
	"fmt"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/store"
)

// ReplaySource re-feeds a recorded capture WAL through the full pipeline:
// every capture is delivered as a Post carrying its recorded match
// context (frozen snapshots, selector groups), each recorded rotation
// fires the hour hook with its per-group node counts, and Lookup resolves
// accounts from the end-of-run profile epilogue. A replayed run's
// detection result reproduces the recording's bit for bit — the
// durability layer doubling as a reproducible ingest backend.
//
// The recording must have been made with Durability.RecordRotations set
// (rotation records are the replay's hour clock and node-hours source)
// and a checkpoint cadence long enough that no WAL segment was pruned.
type ReplaySource struct {
	rotations []*store.RotationRecord
	// byHour[i] holds the captures of the i-th recorded hour, in WAL
	// (= original extraction) order.
	byHour [][]*store.CaptureRecord
	// counts maps a recorded hour number to its rotation counts.
	counts map[int][]int
	// profiles resolves account ids: the end-of-run epilogue first, then
	// the newest match-time snapshot seen for the id.
	profiles map[socialnet.AccountID]*socialnet.Account

	listeners
	next int // next recorded hour to replay
	now  time.Time
}

var (
	_ Source       = (*ReplaySource)(nil)
	_ ReplayBacked = (*ReplaySource)(nil)
)

// NewReplay reads a capture WAL from the backend and prepares it for
// replay. It fails when the recording carries no rotation records —
// without them there is no hour clock and no node-hours denominator.
func NewReplay(b store.Backend) (*ReplaySource, error) {
	log, err := store.ReadLog(b)
	if err != nil {
		return nil, err
	}
	return newReplayFromLog(log)
}

func newReplayFromLog(log *store.Log) (*ReplaySource, error) {
	if len(log.Rotations) == 0 {
		return nil, errors.New("source: recording has no rotation records; record with Durability.RecordRotations")
	}
	r := &ReplaySource{
		rotations: log.Rotations,
		byHour:    make([][]*store.CaptureRecord, len(log.Rotations)),
		counts:    make(map[int][]int, len(log.Rotations)),
		profiles:  make(map[socialnet.AccountID]*socialnet.Account, len(log.Profiles)),
		now:       log.Rotations[0].Now,
	}
	for _, rot := range r.rotations {
		if _, dup := r.counts[rot.Hour]; dup {
			return nil, fmt.Errorf("source: recording rotated hour %d twice", rot.Hour)
		}
		r.counts[rot.Hour] = rot.Counts
	}
	// Assign captures to recorded hours by tweet time: both sequences are
	// chronological, so a single merge walk suffices. The split only
	// shapes which RunHours call delivers a capture; global capture order
	// — the order every downstream structure depends on — is the WAL's.
	hi := 0
	for _, cr := range log.Captures {
		for hi+1 < len(r.rotations) && !cr.Tweet.CreatedAt.Before(r.rotations[hi+1].Now) {
			hi++
		}
		r.byHour[hi] = append(r.byHour[hi], cr)
		// Snapshot fallbacks for accounts missing from the epilogue
		// (e.g. a crashed recording): newest snapshot wins.
		if cr.Sender != nil {
			r.profiles[cr.Sender.ID] = cr.Sender
		}
		if cr.Receiver != nil {
			r.profiles[cr.Receiver.ID] = cr.Receiver
		}
	}
	// The epilogue's end-of-run profiles (final suspension state) shadow
	// the match-time snapshots.
	for id, a := range log.Profiles {
		r.profiles[id] = a
	}
	return r, nil
}

// ID implements Source.
func (r *ReplaySource) ID() string { return "replay" }

// ReplayBacked marks the source as a recording for config validation.
func (r *ReplaySource) ReplayBacked() bool { return true }

// RunHours implements Source: it replays up to n recorded hours — hooks
// first, then that hour's captures in WAL order — and stops silently at
// the end of the recording.
func (r *ReplaySource) RunHours(n int) error {
	for i := 0; i < n && r.next < len(r.rotations); i++ {
		rot := r.rotations[r.next]
		r.now = rot.Now
		r.startHour(rot.Hour, rot.Now)
		for _, cr := range r.byHour[r.next] {
			p := Post{
				Tweet:  &cr.Tweet,
				Origin: "replay",
				Replay: &ReplayInfo{Sender: cr.Sender, Receiver: cr.Receiver, Groups: cr.Groups},
			}
			if !cr.Tweet.CreatedAt.IsZero() {
				r.now = cr.Tweet.CreatedAt
			}
			r.publish(p)
		}
		r.next++
	}
	return nil
}

// Lookup implements Source: epilogue profiles first, newest match-time
// snapshot as fallback.
func (r *ReplaySource) Lookup(id socialnet.AccountID) *socialnet.Account {
	return r.profiles[id]
}

// Now implements Source.
func (r *ReplaySource) Now() time.Time { return r.now }

// Rotation implements Source: the recorded per-group node counts.
func (r *ReplaySource) Rotation(hour int) []int { return r.counts[hour] }

// Close implements Source.
func (r *ReplaySource) Close() error { return nil }
