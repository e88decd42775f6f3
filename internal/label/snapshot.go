package label

import (
	"fmt"
	"io"
	"sort"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/codec"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/imagehash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/minhash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// The label store's cluster indices accumulate in author-first-appearance
// order, so they cannot be rebuilt from a truncated stream without
// replaying it. EncodeSnapshot/RestoreSnapshot serialize the complete
// incremental state for the durable checkpoint (DESIGN.md §14); restoring
// it and then continuing to Add the remaining stream yields the same
// indices the uninterrupted run built, because every join is a pure
// function of the state captured here and the restored schemes are
// reseeded from the same Config. The section is decoded in place from the
// bytes it arrived in; decoded strings are copies, so the restored store
// holds no reference to those bytes.
//
// The one subtlety is the users map: its values are the LIVE accounts the
// stream handed to Add, and Snapshot's corpus must observe the
// engine-mutated profile state at labeling time. A live account's state
// depends on the hour a checkpoint is cut, not on the stream, so the
// section records each user's add-time profile instead: the capture-time
// snapshot the user joined the indices with, a fact of the stream.
// RestoreSnapshot takes a resolver that rebinds each user id to the
// restored world's live account; the add-time profile is only a fallback
// for ids the resolver cannot produce.

// storeSnapshot is the checkpointed state. Union-find parent arrays are
// persisted verbatim (path-compression state included), MinHash
// signatures in index insertion order, and twPool as indices into Tweets
// so the pool keeps aliasing the stream mirror after restore.
type storeSnapshot struct {
	Tweets      []*socialnet.Tweet
	Users       []*socialnet.Account // add-time profiles, in join order
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

// WriteSnapshot writes the section EncodeSnapshot returns to w.
func (s *Store) WriteSnapshot(w io.Writer) error {
	b, err := s.EncodeSnapshot()
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("label: write snapshot: %w", err)
	}
	return nil
}

// EncodeSnapshot returns the store's incremental labeling state as a
// checkpoint section, in a buffer of its own that the caller may keep.
func (s *Store) EncodeSnapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	snap := storeSnapshot{
		Tweets:      s.tweets,
		Users:       s.userProfiles,
		ImgReps:     s.img.Reps(),
		ImgMembers:  s.imgMembers,
		ImgOrder:    s.imgOrder,
		NameMembers: s.nameMembers,
		NameOrder:   s.nameOrder,
		DescSigs:    make([]minhash.Signature, s.descIndex.Len()),
		DescIDs:     s.descIDs,
		DescParent:  s.descUF.parent,
		TwSigs:      make([]minhash.Signature, s.twIndex.Len()),
		TwPoolIdx:   make([]int, len(s.twPool)),
		TwParent:    s.twUF.parent,
		Repeats:     s.repeats,
	}
	for i := range snap.DescSigs {
		snap.DescSigs[i] = s.descIndex.Signature(i)
	}
	for i := range snap.TwSigs {
		snap.TwSigs[i] = s.twIndex.Signature(i)
	}
	tweetIdx := make(map[*socialnet.Tweet]int, len(s.tweets))
	for i, t := range s.tweets {
		tweetIdx[t] = i
	}
	for i, t := range s.twPool {
		idx, ok := tweetIdx[t]
		if !ok {
			return nil, fmt.Errorf("label: snapshot: pooled tweet %d not in stream mirror", t.ID)
		}
		snap.TwPoolIdx[i] = idx
	}
	return encodeStoreSnapshot(&snap), nil
}

// Section layout (package codec primitives), every list prefixed with its
// uvarint length:
//
//	tweets:     codec.AppendTweet each
//	users:      codec.AppendProfile of each add-time profile (its id is
//	            the user's)
//	image reps: hi, lo words
//	image and name groups, in ImgOrder/NameOrder: key, member ids
//	desc index: per signature its words (8 bytes each), account id, parent
//	tweet index: per signature its words, pool index, parent
//	repeats:    by sorted key: key, count
//
// Every map is written in a fixed order, so the same state always encodes
// to the same bytes.

// Lower bounds on one encoded entry of each list, which keep a corrupt
// length from driving an allocation the input cannot back.
const (
	minTweetBytes = 13
	minUserBytes  = 50
	minRepBytes   = 16
	minGroupBytes = 2
	minSigBytes   = 3
	minRepeatByte = 2
)

func encodeStoreSnapshot(snap *storeSnapshot) []byte {
	size := 64 + 16*len(snap.ImgReps)
	for _, t := range snap.Tweets {
		size += 48 + len(t.Text) + len(t.Topic)
	}
	for _, u := range snap.Users {
		size += 96 + len(u.ScreenName) + len(u.Name) + len(u.Description)
	}
	size += (len(snap.DescSigs) + len(snap.TwSigs)) * (16 + 8*lshBands*lshRows)
	b := make([]byte, 0, size)

	b = codec.AppendUvarint(b, uint64(len(snap.Tweets)))
	for _, t := range snap.Tweets {
		b = codec.AppendTweet(b, t)
	}
	b = codec.AppendUvarint(b, uint64(len(snap.Users)))
	for _, u := range snap.Users {
		b = codec.AppendProfile(b, u)
	}
	b = codec.AppendUvarint(b, uint64(len(snap.ImgReps)))
	for _, h := range snap.ImgReps {
		b = codec.AppendU64(b, h.Hi)
		b = codec.AppendU64(b, h.Lo)
	}
	b = codec.AppendUvarint(b, uint64(len(snap.ImgOrder)))
	for _, g := range snap.ImgOrder {
		b = codec.AppendVarint(b, int64(g))
		b = codec.AppendIDs(b, snap.ImgMembers[g])
	}
	b = codec.AppendUvarint(b, uint64(len(snap.NameOrder)))
	for _, seq := range snap.NameOrder {
		b = codec.AppendString(b, seq)
		b = codec.AppendIDs(b, snap.NameMembers[seq])
	}
	b = codec.AppendUvarint(b, uint64(len(snap.DescSigs)))
	for i, sig := range snap.DescSigs {
		b = codec.AppendWords(b, sig)
		b = codec.AppendVarint(b, int64(snap.DescIDs[i]))
		b = codec.AppendVarint(b, int64(snap.DescParent[i]))
	}
	b = codec.AppendUvarint(b, uint64(len(snap.TwSigs)))
	for i, sig := range snap.TwSigs {
		b = codec.AppendWords(b, sig)
		b = codec.AppendVarint(b, int64(snap.TwPoolIdx[i]))
		b = codec.AppendVarint(b, int64(snap.TwParent[i]))
	}
	keys := make([]string, 0, len(snap.Repeats))
	for k := range snap.Repeats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = codec.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = codec.AppendString(b, k)
		b = codec.AppendVarint(b, int64(snap.Repeats[k]))
	}
	return b
}

// decodeStoreSnapshot reads a section written by encodeStoreSnapshot.
// Empty lists decode as nil; the cross-list checks are RestoreSnapshot's.
func decodeStoreSnapshot(b []byte) (*storeSnapshot, error) {
	d := codec.NewDecoder(b)
	snap := &storeSnapshot{}
	if n := d.Count(minTweetBytes); n > 0 {
		tweets := make([]socialnet.Tweet, n)
		snap.Tweets = make([]*socialnet.Tweet, n)
		for i := range tweets {
			d.Tweet(&tweets[i])
			snap.Tweets[i] = &tweets[i]
		}
	}
	if n := d.Count(minUserBytes); n > 0 {
		users := make([]socialnet.Account, n)
		snap.Users = make([]*socialnet.Account, n)
		for i := range users {
			d.Profile(&users[i])
			snap.Users[i] = &users[i]
		}
	}
	if n := d.Count(minRepBytes); n > 0 {
		snap.ImgReps = make([]imagehash.Hash, n)
		for i := range snap.ImgReps {
			snap.ImgReps[i] = imagehash.Hash{Hi: d.U64(), Lo: d.U64()}
		}
	}
	n := d.Count(minGroupBytes)
	snap.ImgMembers = make(map[int][]socialnet.AccountID, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		g := d.Int()
		if _, dup := snap.ImgMembers[g]; dup {
			d.Fail(fmt.Errorf("label: snapshot repeats image group %d", g))
		}
		snap.ImgOrder = append(snap.ImgOrder, g)
		snap.ImgMembers[g] = d.IDs()
	}
	n = d.Count(minGroupBytes)
	snap.NameMembers = make(map[string][]socialnet.AccountID, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		seq := d.Str()
		if _, dup := snap.NameMembers[seq]; dup {
			d.Fail(fmt.Errorf("label: snapshot repeats name group %q", seq))
		}
		snap.NameOrder = append(snap.NameOrder, seq)
		snap.NameMembers[seq] = d.IDs()
	}
	if n := d.Count(minSigBytes); n > 0 {
		snap.DescSigs = make([]minhash.Signature, n)
		snap.DescIDs = make([]socialnet.AccountID, n)
		snap.DescParent = make([]int, n)
		for i := range snap.DescSigs {
			snap.DescSigs[i] = d.Words()
			snap.DescIDs[i] = socialnet.AccountID(d.Varint())
			snap.DescParent[i] = d.Int()
		}
	}
	if n := d.Count(minSigBytes); n > 0 {
		snap.TwSigs = make([]minhash.Signature, n)
		snap.TwPoolIdx = make([]int, n)
		snap.TwParent = make([]int, n)
		for i := range snap.TwSigs {
			snap.TwSigs[i] = d.Words()
			snap.TwPoolIdx[i] = d.Int()
			snap.TwParent[i] = d.Int()
		}
	}
	n = d.Count(minRepeatByte)
	snap.Repeats = make(map[string]int, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.Str()
		snap.Repeats[k] = d.Int()
	}
	if err := d.Finish("label snapshot"); err != nil {
		return nil, fmt.Errorf("label: decode snapshot: %w", err)
	}
	return snap, nil
}

// RestoreSnapshot replaces the store's state with a section written by
// EncodeSnapshot, decoded in place. The store must have been created with
// the same Config the snapshotted store used (the MinHash schemes are
// reseeded from it, and signatures from different schemes are
// incomparable). resolve rebinds each restored user id to the live account
// of the restored world; when it is nil or returns nil the add-time
// profile from the snapshot is used instead. On decode or validation error
// the store is left unchanged.
func (s *Store) RestoreSnapshot(b []byte, resolve func(socialnet.AccountID) *socialnet.Account) error {
	snap, err := decodeStoreSnapshot(b)
	if err != nil {
		return err
	}
	for _, idx := range snap.TwPoolIdx {
		if idx < 0 || idx >= len(snap.Tweets) {
			return fmt.Errorf("label: snapshot pool index %d out of %d tweets", idx, len(snap.Tweets))
		}
	}
	for _, parent := range [][]int{snap.DescParent, snap.TwParent} {
		for i, p := range parent {
			if p < 0 || p >= len(parent) {
				return fmt.Errorf("label: snapshot union-find parent %d of %d out of range", p, i)
			}
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

	// The rules pass reads each tweet's normalized text; the checkpoint
	// does not carry it, so it is recomputed here.
	norms := parallel.Map(len(snap.Tweets), s.cfg.Workers, func(i int) string {
		return normalizedKey(snap.Tweets[i])
	})

	s.mu.Lock()
	defer s.mu.Unlock()

	s.tweets = snap.Tweets
	s.norms = norms
	s.userProfiles = snap.Users
	s.users = make(map[socialnet.AccountID]*socialnet.Account, len(snap.Users))
	for _, p := range snap.Users {
		u := p
		if resolve != nil {
			if live := resolve(p.ID); live != nil {
				u = live
			}
		}
		s.users[p.ID] = u
	}
	s.img = imagehash.NewGrouper(s.cfg.ImageHammingThreshold)
	s.img.SetReps(snap.ImgReps)
	s.imgMembers = snap.ImgMembers
	s.imgOrder = snap.ImgOrder
	s.nameMembers = snap.NameMembers
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
	return nil
}
