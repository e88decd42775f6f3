package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

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
// with a snapshot taken by SnapshotGroupStats, and re-bases the capture
// counters of the monitor's instrumentation. The snapshot must come from a
// monitor with the same selector specs.
func (m *Monitor) RestoreGroupStats(snap []GroupStatsSnapshot) error {
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
// SenderSnapshot. The WAL persists both snapshots so replayed extraction
// reads the same frozen values the original extraction did.
func (c *Capture) ReceiverSnapshot() *socialnet.Account { return c.receiverSnap }

// AdoptCapture is the WAL-replay twin of Match: it rebuilds a capture from
// its logged ingredients and repeats Match's per-group bookkeeping
// (Tweets, Senders, instrument counters). The group indices were decided
// by the original Match against the then-current node set, so no filtering
// happens here; lookup resolves the live accounts of the restored world.
// The caller then completes and appends the capture exactly as the live
// stream's tail would. Replayed captures are untraced.
func (m *Monitor) AdoptCapture(t *socialnet.Tweet, senderSnap, receiverSnap *socialnet.Account,
	groups []int, lookup func(socialnet.AccountID) *socialnet.Account) (*Capture, error) {
	for _, gi := range groups {
		if gi < 0 || gi >= len(m.groups) {
			return nil, fmt.Errorf("core: replayed capture names group %d of %d", gi, len(m.groups))
		}
	}
	c := &Capture{
		Tweet:      t,
		Sender:     lookup(t.AuthorID),
		Groups:     groups,
		senderSnap: senderSnap,
	}
	if receiverSnap != nil {
		c.Receiver = lookup(receiverSnap.ID)
		c.receiverSnap = receiverSnap
	}
	for _, gi := range groups {
		g := m.groups[gi]
		g.Tweets++
		g.Senders[t.AuthorID] = struct{}{}
		m.ins.groupTweets[gi].Inc()
	}
	m.ins.tweetsCaptured.Inc()
	return c, nil
}

// onlineSnapshot is the gob payload of an OnlineDetector checkpoint. The
// fitted classifier itself is not serialized — see ReadSnapshot.
type onlineSnapshot struct {
	X         [][]float64
	Y         []bool
	SinceFit  int
	Retrains  int
	EverTrain bool
}

// WriteSnapshot serializes the detector's sliding window and retrain
// schedule to w.
func (o *OnlineDetector) WriteSnapshot(w io.Writer) error {
	snap := onlineSnapshot{
		X:         o.x,
		Y:         o.y,
		SinceFit:  o.sinceFit,
		Retrains:  o.retrains,
		EverTrain: o.everTrain,
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("core: encode online snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot restores the window and retrain schedule from a snapshot
// written by WriteSnapshot, then performs a recovery refit: when the
// detector had ever trained, the model is re-fit on the restored window
// with the seed of the most recent retrain. The refit window may be
// slightly newer than the one behind the crashed model (observations since
// the last scheduled retrain are included), but the retrain counter — and
// therefore the seed sequence of every future retrain — is preserved
// exactly, so the detector reconverges with the uninterrupted run at its
// next scheduled retrain.
func (o *OnlineDetector) ReadSnapshot(r io.Reader) error {
	var snap onlineSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("core: decode online snapshot: %w", err)
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
	clf, err := newClassifierBins(o.name, o.seed+int64(o.retrains-1), o.bins)
	if err != nil {
		return err
	}
	if err := clf.Fit(o.x, o.y); err != nil {
		return fmt.Errorf("core: recovery refit: %w", err)
	}
	o.clf = clf
	return nil
}
