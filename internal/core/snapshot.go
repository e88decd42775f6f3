package core

import (
	"fmt"
	"sort"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/codec"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// This file is the monitor-side half of crash recovery (DESIGN.md §14):
// checkpointable snapshots of the per-group statistics and the online
// detector, plus AdoptCapture, the WAL-replay twin of Match.
//
// NodeHours is deliberately absent from the group snapshot: recovery
// re-runs the simulation from hour zero at the same seed, so Rotate fires
// the same number of times and rebuilds the node-hours denominator (and
// the node/used/rng selection state) deterministically. Persisting it too
// would double-count.

// GroupStatsSnapshot is the checkpointed portion of one GroupStats. Member
// sets are flattened to sorted slices for a deterministic encoding.
type GroupStatsSnapshot struct {
	Tweets   int
	Senders  []socialnet.AccountID
	Spams    int
	Spammers []socialnet.AccountID
}

// EncodeGroupStats returns the replay-dependent counters of every group as
// a checkpoint section, in a buffer of its own that the caller may keep.
func (m *Monitor) EncodeGroupStats() []byte { return encodeGroupStats(m.SnapshotGroupStats()) }

// encodeGroupStats writes the group count, then per group its tweet and
// spam counters and its sorted sender and spammer ids.
func encodeGroupStats(gs []GroupStatsSnapshot) []byte {
	size := 8
	for _, g := range gs {
		size += 32 + 5*(len(g.Senders)+len(g.Spammers))
	}
	b := codec.AppendUvarint(make([]byte, 0, size), uint64(len(gs)))
	for _, g := range gs {
		b = codec.AppendVarint(b, int64(g.Tweets))
		b = codec.AppendIDs(b, g.Senders)
		b = codec.AppendVarint(b, int64(g.Spams))
		b = codec.AppendIDs(b, g.Spammers)
	}
	return b
}

// decodeGroupStats reads a section written by encodeGroupStats.
func decodeGroupStats(b []byte) ([]GroupStatsSnapshot, error) {
	d := codec.NewDecoder(b)
	gs := make([]GroupStatsSnapshot, d.Count(4))
	for i := range gs {
		gs[i].Tweets = d.Int()
		gs[i].Senders = d.IDs()
		gs[i].Spams = d.Int()
		gs[i].Spammers = d.IDs()
		if d.Err() == nil && (gs[i].Tweets < 0 || gs[i].Spams < 0) {
			// The counters re-base monotone metrics on restore.
			d.Fail(fmt.Errorf("group %d has negative counters %d/%d", i, gs[i].Tweets, gs[i].Spams))
		}
	}
	if err := d.Finish("group stats"); err != nil {
		return nil, fmt.Errorf("core: decode group stats: %w", err)
	}
	return gs, nil
}

// SnapshotGroupStats captures the replay-dependent counters of every
// selector group, index-aligned with the monitor's group list.
func (m *Monitor) SnapshotGroupStats() []GroupStatsSnapshot {
	out := make([]GroupStatsSnapshot, len(m.groups))
	for gi, g := range m.groups {
		out[gi] = GroupStatsSnapshot{
			Tweets:   g.Tweets,
			Senders:  sortedIDs(g.Senders),
			Spams:    g.Spams,
			Spammers: sortedIDs(g.Spammers),
		}
	}
	return out
}

// RestoreGroupStats replaces the replay-dependent counters of every group
// with a section written by EncodeGroupStats, decoded in place, and
// re-bases the capture counters of the monitor's instrumentation. The
// section must come from a monitor with the same selector specs; one that
// does not decode or does not fit leaves the monitor unchanged.
func (m *Monitor) RestoreGroupStats(b []byte) error {
	snap, err := decodeGroupStats(b)
	if err != nil {
		return err
	}
	if len(snap) != len(m.groups) {
		return fmt.Errorf("core: group snapshot has %d groups, monitor has %d",
			len(snap), len(m.groups))
	}
	for gi, gs := range snap {
		g := m.groups[gi]
		g.Tweets = gs.Tweets
		g.Senders = idSet(gs.Senders)
		g.Spams = gs.Spams
		g.Spammers = idSet(gs.Spammers)
		m.ins.groupTweets[gi].Add(float64(gs.Tweets))
		m.ins.updateGroup(gi, g)
	}
	// The per-capture counter re-bases from the capture store: appended =
	// retained + evicted, restored just before this call.
	m.ins.tweetsCaptured.Add(float64(uint64(m.store.Len()) + m.store.Evicted()))
	return nil
}

func sortedIDs(set map[socialnet.AccountID]struct{}) []socialnet.AccountID {
	out := make([]socialnet.AccountID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func idSet(ids []socialnet.AccountID) map[socialnet.AccountID]struct{} {
	set := make(map[socialnet.AccountID]struct{}, len(ids))
	for _, id := range ids {
		set[id] = struct{}{}
	}
	return set
}

// ReceiverSnapshot returns the receiver profile frozen at match time (nil
// for tweets that mentioned no monitored account), the counterpart of
// SenderSnapshot, and non-nil exactly for the captures AttributeSpam
// credits. The WAL and the checkpoint persist both snapshots, so replayed
// extraction reads the frozen values the original extraction did.
func (c *Capture) ReceiverSnapshot() *socialnet.Account { return c.receiverSnap }

// AdoptCapture is the WAL-replay twin of Match: it rebuilds a capture from
// its logged ingredients and repeats Match's per-group bookkeeping
// (Tweets, Senders, instrument counters). The group indices were decided
// by the original Match against the then-current node set, so no filtering
// happens here. The caller then completes and appends the capture exactly
// as the live stream's tail would. Replayed captures are untraced.
func (m *Monitor) AdoptCapture(t *socialnet.Tweet, senderSnap, receiverSnap *socialnet.Account,
	groups []int, lookup func(socialnet.AccountID) *socialnet.Account) (*Capture, error) {
	for _, gi := range groups {
		if gi < 0 || gi >= len(m.groups) {
			return nil, fmt.Errorf("core: replayed capture names group %d of %d", gi, len(m.groups))
		}
	}
	c := adopted(t, senderSnap, receiverSnap, groups, lookup)
	for _, gi := range groups {
		g := m.groups[gi]
		g.Tweets++
		g.Senders[t.AuthorID] = struct{}{}
		m.ins.groupTweets[gi].Inc()
	}
	m.ins.tweetsCaptured.Inc()
	return &c, nil
}

// adopted builds a capture from the match-time facts a WAL record or a
// checkpoint holds; only the live Sender is resolved, through lookup (nil
// for an author the restored world has not spawned yet).
func adopted(t *socialnet.Tweet, senderSnap, receiverSnap *socialnet.Account, groups []int,
	lookup func(socialnet.AccountID) *socialnet.Account) Capture {
	return Capture{
		Tweet:        t,
		Sender:       lookup(t.AuthorID),
		Groups:       groups,
		senderSnap:   senderSnap,
		receiverSnap: receiverSnap,
	}
}

// onlineSnapshot is an OnlineDetector checkpoint: the window rows as
// compact float bits (codec.AppendCompactFloat), the labels, and the
// retrain counters. The fitted classifier itself is not serialized — see
// RestoreSnapshot.
type onlineSnapshot struct {
	X         [][]float64
	Y         []bool
	SinceFit  int
	Retrains  int
	EverTrain bool
}

// EncodeSnapshot returns the detector's sliding window and retrain
// schedule as a checkpoint section, in a buffer of its own that the caller
// may keep.
func (o *OnlineDetector) EncodeSnapshot() []byte {
	size := 16 + len(o.y)
	for _, row := range o.x {
		size += 2 + 4*len(row)
	}
	b := codec.AppendUvarint(make([]byte, 0, size), uint64(len(o.x)))
	for _, row := range o.x {
		b = codec.AppendUvarint(b, uint64(len(row)))
		for _, v := range row {
			b = codec.AppendCompactFloat(b, v)
		}
	}
	b = codec.AppendUvarint(b, uint64(len(o.y)))
	for _, v := range o.y {
		b = codec.AppendBool(b, v)
	}
	b = codec.AppendVarint(b, int64(o.sinceFit))
	b = codec.AppendVarint(b, int64(o.retrains))
	return codec.AppendBool(b, o.everTrain)
}

// decodeOnlineSnapshot reads a section written by EncodeSnapshot; empty
// slices decode as nil.
func decodeOnlineSnapshot(b []byte) (*onlineSnapshot, error) {
	d := codec.NewDecoder(b)
	snap := &onlineSnapshot{}
	if n := d.Count(1); n > 0 {
		snap.X = make([][]float64, n)
		for i := range snap.X {
			if m := d.Count(1); m > 0 {
				row := make([]float64, m)
				for j := range row {
					row[j] = d.CompactFloat()
				}
				snap.X[i] = row
			}
		}
	}
	if n := d.Count(1); n > 0 {
		snap.Y = make([]bool, n)
		for i := range snap.Y {
			snap.Y[i] = d.Bool()
		}
	}
	snap.SinceFit = d.Int()
	snap.Retrains = d.Int()
	snap.EverTrain = d.Bool()
	if err := d.Finish("online snapshot"); err != nil {
		return nil, fmt.Errorf("core: decode online snapshot: %w", err)
	}
	// Observe keeps one label per row and every row a whole vector; a
	// window that breaks either could not be refit.
	if len(snap.X) != len(snap.Y) {
		return nil, fmt.Errorf("core: online snapshot has %d rows for %d labels", len(snap.X), len(snap.Y))
	}
	for i, row := range snap.X {
		if len(row) != len(snap.X[0]) {
			return nil, fmt.Errorf("core: online snapshot row %d has %d features, row 0 has %d",
				i, len(row), len(snap.X[0]))
		}
	}
	return snap, nil
}

// RestoreSnapshot restores the window and retrain schedule from a section
// written by EncodeSnapshot, decoded in place, then performs a recovery
// refit: when the
// detector had ever trained, the model is re-fit on the restored window
// with the seed of the most recent retrain. The refit window may be
// slightly newer than the one behind the crashed model (observations since
// the last scheduled retrain are included), but the retrain counter — and
// therefore the seed sequence of every future retrain — is preserved
// exactly, so the detector reconverges with the uninterrupted run at its
// next scheduled retrain.
func (o *OnlineDetector) RestoreSnapshot(b []byte) error {
	snap, err := decodeOnlineSnapshot(b)
	if err != nil {
		return err
	}
	o.x = snap.X
	o.y = snap.Y
	o.sinceFit = snap.SinceFit
	o.retrains = snap.Retrains
	o.everTrain = snap.EverTrain
	o.clf = nil
	if !o.everTrain || o.retrains == 0 {
		return nil
	}
	pos := 0
	for _, v := range o.y {
		if v {
			pos++
		}
	}
	if pos == 0 || pos == len(o.y) {
		return nil // single-class window: stay conservative until retrain
	}
	clf, err := NewClassifier(o.name, o.seed+int64(o.retrains-1))
	if err != nil {
		return err
	}
	if err := clf.Fit(o.x, o.y); err != nil {
		return fmt.Errorf("core: recovery refit: %w", err)
	}
	o.clf = clf
	return nil
}
