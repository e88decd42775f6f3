package label

import (
	"encoding/gob"
	"fmt"
	"io"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/imagehash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/minhash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// The label store's cluster indices accumulate in author-first-appearance
// order, so they cannot be rebuilt from a truncated stream without
// replaying it. WriteSnapshot/ReadSnapshot serialize the complete
// incremental state for the durable checkpoint (DESIGN.md §14); restoring
// it and then continuing to Add the remaining stream yields the same
// indices the uninterrupted run built, because every join is a pure
// function of the state captured here and the restored schemes are
// reseeded from the same Config.
//
// The one subtlety is the users map: its values are the LIVE accounts the
// stream handed to Add, and Snapshot's corpus must observe the
// engine-mutated profile state at labeling time, not frozen add-time
// copies. ReadSnapshot therefore takes a resolver that rebinds each user
// id to the restored world's live account; the frozen copies in the
// snapshot are only a fallback for ids the resolver cannot produce.

// storeSnapshot is the gob payload. Union-find parent arrays are persisted
// verbatim (path-compression state included), MinHash signatures in index
// insertion order, and twPool as indices into Tweets so the pool keeps
// aliasing the stream mirror after restore.
type storeSnapshot struct {
	Tweets      []socialnet.Tweet
	UserOrder   []socialnet.AccountID
	Users       []socialnet.Account // aligned with UserOrder
	ImgReps     []imagehash.Hash
	ImgMembers  map[int][]socialnet.AccountID
	ImgOrder    []int
	NameMembers map[string][]socialnet.AccountID
	NameOrder   []string
	DescSigs    []minhash.Signature
	DescIDs     []socialnet.AccountID
	DescParent  []int
	TwSigs      []minhash.Signature
	TwPoolIdx   []int
	TwParent    []int
	Repeats     map[string]int
}

// WriteSnapshot serializes the store's incremental labeling state to w.
func (s *Store) WriteSnapshot(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	snap := storeSnapshot{
		Tweets:      make([]socialnet.Tweet, len(s.tweets)),
		UserOrder:   s.userOrder,
		Users:       make([]socialnet.Account, len(s.userOrder)),
		ImgReps:     s.img.Reps(),
		ImgMembers:  s.imgMembers,
		ImgOrder:    s.imgOrder,
		NameMembers: s.nameMembers,
		NameOrder:   s.nameOrder,
		DescIDs:     s.descIDs,
		DescParent:  s.descUF.parent,
		Repeats:     s.repeats,
	}
	tweetIdx := make(map[*socialnet.Tweet]int, len(s.tweets))
	for i, t := range s.tweets {
		snap.Tweets[i] = *t
		tweetIdx[t] = i
	}
	for i, id := range s.userOrder {
		u := s.users[id]
		if u == nil {
			return fmt.Errorf("label: snapshot: user %d in order but not in map", id)
		}
		snap.Users[i] = *u
	}
	snap.DescSigs = make([]minhash.Signature, s.descIndex.Len())
	for i := range snap.DescSigs {
		snap.DescSigs[i] = s.descIndex.Signature(i)
	}
	snap.TwSigs = make([]minhash.Signature, s.twIndex.Len())
	for i := range snap.TwSigs {
		snap.TwSigs[i] = s.twIndex.Signature(i)
	}
	snap.TwPoolIdx = make([]int, len(s.twPool))
	for i, t := range s.twPool {
		idx, ok := tweetIdx[t]
		if !ok {
			return fmt.Errorf("label: snapshot: pooled tweet %d not in stream mirror", t.ID)
		}
		snap.TwPoolIdx[i] = idx
	}
	snap.TwParent = s.twUF.parent
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("label: encode snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot replaces the store's state with a snapshot written by
// WriteSnapshot. The store must have been created with the same Config the
// snapshotted store used (the MinHash schemes are reseeded from it, and
// signatures from different schemes are incomparable). resolve rebinds
// each restored user id to the live account of the restored world; when it
// is nil or returns nil the frozen add-time copy from the snapshot is used
// instead. On decode or validation error the store is left unchanged.
func (s *Store) ReadSnapshot(r io.Reader, resolve func(socialnet.AccountID) *socialnet.Account) error {
	var snap storeSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("label: decode snapshot: %w", err)
	}
	if len(snap.Users) != len(snap.UserOrder) {
		return fmt.Errorf("label: snapshot has %d users for %d order entries",
			len(snap.Users), len(snap.UserOrder))
	}
	if len(snap.DescSigs) != len(snap.DescIDs) || len(snap.DescSigs) != len(snap.DescParent) {
		return fmt.Errorf("label: snapshot description index misaligned (%d/%d/%d)",
			len(snap.DescSigs), len(snap.DescIDs), len(snap.DescParent))
	}
	if len(snap.TwSigs) != len(snap.TwPoolIdx) || len(snap.TwSigs) != len(snap.TwParent) {
		return fmt.Errorf("label: snapshot tweet index misaligned (%d/%d/%d)",
			len(snap.TwSigs), len(snap.TwPoolIdx), len(snap.TwParent))
	}
	for _, idx := range snap.TwPoolIdx {
		if idx < 0 || idx >= len(snap.Tweets) {
			return fmt.Errorf("label: snapshot pool index %d out of %d tweets", idx, len(snap.Tweets))
		}
	}
	// The banding indices key on whole bands, so a signature of any other
	// length (a corrupt checkpoint, or one from a build with another
	// scheme) could never match again: refuse it instead.
	for _, sigs := range [][]minhash.Signature{snap.DescSigs, snap.TwSigs} {
		for i, sig := range sigs {
			if len(sig) != lshBands*lshRows {
				return fmt.Errorf("label: snapshot signature %d has %d words, want %d",
					i, len(sig), lshBands*lshRows)
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	s.tweets = make([]*socialnet.Tweet, len(snap.Tweets))
	for i := range snap.Tweets {
		s.tweets[i] = &snap.Tweets[i]
	}
	s.userOrder = snap.UserOrder
	s.users = make(map[socialnet.AccountID]*socialnet.Account, len(snap.UserOrder))
	for i, id := range snap.UserOrder {
		var u *socialnet.Account
		if resolve != nil {
			u = resolve(id)
		}
		if u == nil {
			u = &snap.Users[i]
		}
		s.users[id] = u
	}
	s.img = imagehash.NewGrouper(s.cfg.ImageHammingThreshold)
	s.img.SetWorkers(s.cfg.Workers)
	s.img.SetReps(snap.ImgReps)
	s.imgMembers = snap.ImgMembers
	if s.imgMembers == nil {
		s.imgMembers = make(map[int][]socialnet.AccountID)
	}
	s.imgOrder = snap.ImgOrder
	s.nameMembers = snap.NameMembers
	if s.nameMembers == nil {
		s.nameMembers = make(map[string][]socialnet.AccountID)
	}
	s.nameOrder = snap.NameOrder
	s.descIndex = minhash.NewIndex(lshBands, lshRows)
	for _, sig := range snap.DescSigs {
		s.descIndex.Add(sig)
	}
	s.descIDs = snap.DescIDs
	s.descUF = &unionFind{parent: snap.DescParent}
	s.twIndex = minhash.NewIndex(lshBands, lshRows)
	for _, sig := range snap.TwSigs {
		s.twIndex.Add(sig)
	}
	s.twPool = make([]*socialnet.Tweet, len(snap.TwPoolIdx))
	for i, idx := range snap.TwPoolIdx {
		s.twPool[i] = s.tweets[idx]
	}
	s.twUF = &unionFind{parent: snap.TwParent}
	s.repeats = snap.Repeats
	if s.repeats == nil {
		s.repeats = make(map[string]int)
	}
	return nil
}
