// Package codec is the binary encoding behind every byte the durable
// store persists: WAL records and checkpoint sections. Values are appended
// to a byte slice and read back by a Decoder; there is no reflection and
// no type description on the wire, so a value costs what its bytes cost.
//
// Integers are uvarint or zig-zag varint, 64-bit words are little-endian
// 8-byte words, floats are their IEEE bits (a fixed word, or the compact
// varint form for feature values), so every value, NaN payloads included,
// survives exactly, and strings and slices are prefixed with their
// uvarint length.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/imagehash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// ErrShort reports input that ends inside a value, or a length that the
// remaining input cannot hold.
var ErrShort = errors.New("codec: input truncated")

// AppendUvarint appends v in unsigned varint form.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v in zig-zag varint form.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendU64 appends v as a little-endian 8-byte word.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendFloat appends f's IEEE bits as an 8-byte word.
func AppendFloat(b []byte, f float64) []byte { return AppendU64(b, math.Float64bits(f)) }

// AppendCompactFloat appends f in gob's float form: its IEEE bits with
// the bytes reversed, as a uvarint. Integral and short-mantissa values
// (feature counts, flags, ratios like 0.5) take 1–3 bytes instead of 8;
// an arbitrary fraction takes 9 or 10. Every value survives exactly.
func AppendCompactFloat(b []byte, f float64) []byte {
	return AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(f)))
}

// AppendString appends s, length first.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendStrings appends ss, count first.
func AppendStrings(b []byte, ss []string) []byte {
	b = AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// AppendInts appends xs, count first, each as a uvarint: the form for
// non-negative indices and counts.
func AppendInts(b []byte, xs []int) []byte {
	b = AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = AppendUvarint(b, uint64(x))
	}
	return b
}

// AppendIDs appends account ids, count first, each as a zig-zag varint.
func AppendIDs(b []byte, ids []socialnet.AccountID) []byte {
	b = AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = AppendVarint(b, int64(id))
	}
	return b
}

// AppendWords appends ws, count first, each as a little-endian 8-byte
// word: the form for MinHash signatures, whose words are uniform hashes a
// varint would only lengthen.
func AppendWords(b []byte, ws []uint64) []byte {
	b = AppendUvarint(b, uint64(len(ws)))
	for _, w := range ws {
		b = AppendU64(b, w)
	}
	return b
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendTime appends t at nanosecond precision. Decoding yields the
// instant in UTC.
func AppendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		// time.Time's zero value is outside the UnixNano range; flag it
		// so decode restores a true zero rather than year 1754.
		return AppendVarint(append(b, 0), 0)
	}
	return AppendVarint(append(b, 1), t.UnixNano())
}

// AppendTweet appends a tweet's fields: id authorID createdAt kind source
// text topic hashtags urls mentions spam campaignID.
func AppendTweet(b []byte, t *socialnet.Tweet) []byte {
	b = AppendVarint(b, int64(t.ID))
	b = AppendVarint(b, int64(t.AuthorID))
	b = AppendTime(b, t.CreatedAt)
	b = AppendVarint(b, int64(t.Kind))
	b = AppendVarint(b, int64(t.Source))
	b = AppendString(b, t.Text)
	b = AppendString(b, t.Topic)
	b = AppendStrings(b, t.Hashtags)
	b = AppendStrings(b, t.URLs)
	b = AppendIDs(b, t.Mentions)
	b = AppendBool(b, t.Spam)
	return AppendVarint(b, int64(t.CampaignID))
}

// AppendProfile appends an account's exported fields. The engine-side
// unexported fields (activity bookkeeping, spam budget) are outside the
// profile contract; AppendAccount adds the one that replay needs.
func AppendProfile(b []byte, a *socialnet.Account) []byte {
	b = AppendVarint(b, int64(a.ID))
	b = AppendString(b, a.ScreenName)
	b = AppendString(b, a.Name)
	b = AppendString(b, a.Description)
	b = AppendTime(b, a.CreatedAt)
	b = AppendVarint(b, int64(a.FriendsCount))
	b = AppendVarint(b, int64(a.FollowersCount))
	b = AppendVarint(b, int64(a.ListedCount))
	b = AppendVarint(b, int64(a.FavouritesCount))
	b = AppendVarint(b, int64(a.StatusesCount))
	b = AppendBool(b, a.Verified)
	b = AppendBool(b, a.DefaultProfileImage)
	b = AppendVarint(b, a.ProfileImageSeed)
	b = AppendU64(b, a.ProfileImageHash.Hi)
	b = AppendU64(b, a.ProfileImageHash.Lo)
	b = AppendVarint(b, int64(a.Kind))
	b = AppendVarint(b, int64(a.CampaignID))
	b = AppendBool(b, a.Suspended)
	b = AppendTime(b, a.SuspendedAt)
	b = AppendVarint(b, int64(a.HashtagCategory))
	b = AppendVarint(b, int64(a.TrendAffinity))
	b = AppendFloat(b, a.TweetsPerHour)
	b = AppendFloat(b, a.MentionRate)
	return AppendVarint(b, int64(a.PreferredSource))
}

// AppendAccount appends a presence byte and, for a non-nil a, its profile
// plus the last-post timestamp: that one feeds the mention-gap feature,
// so replayed extraction needs it (the proc shard wire carries it for the
// same reason).
func AppendAccount(b []byte, a *socialnet.Account) []byte {
	if a == nil {
		return append(b, 0)
	}
	b = AppendProfile(append(b, 1), a)
	return AppendTime(b, a.LastPostAt())
}

// AppendCapture appends a capture's match-time facts, the one capture
// layout of the WAL and the checkpoint: the tweet, the sender and receiver
// snapshots frozen at match time (AppendAccount), and the group indices.
func AppendCapture(b []byte, t *socialnet.Tweet, sender, receiver *socialnet.Account, groups []int) []byte {
	b = AppendTweet(b, t)
	b = AppendAccount(b, sender)
	b = AppendAccount(b, receiver)
	return AppendInts(b, groups)
}

// Decoder walks an encoding with explicit bounds checks. Every read either
// succeeds or latches an error, after which all reads return zero values;
// decoding never panics on corrupt input. No read allocates more than the
// remaining input can encode: Count refuses an element count the bytes
// left cannot hold.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a decoder over b. Decoded strings are copies, so b
// may be reused once decoding is done.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err reports the first failure, nil while every read has succeeded.
func (d *Decoder) Err() error { return d.err }

// Len reports the bytes left.
func (d *Decoder) Len() int { return len(d.b) }

// Fail latches err unless an earlier failure is already latched.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Finish reports the latched failure, or an error naming what when bytes
// are left over after a structurally complete value.
func (d *Decoder) Finish(what string) error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("codec: %d trailing bytes after %s", len(d.b), what)
	}
	return nil
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = ErrShort
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads a zig-zag varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = ErrShort
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int reads a zig-zag varint as an int.
func (d *Decoder) Int() int { return int(d.Varint()) }

// Count reads an element count and checks it against the remaining input,
// given that every element encodes to at least minSize bytes (minimum 1).
// A count the input cannot hold fails instead of driving an allocation.
func (d *Decoder) Count(minSize int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)/max(minSize, 1)) {
		d.err = ErrShort
		return 0
	}
	return int(n)
}

// Bytes returns the next n bytes without copying.
func (d *Decoder) Bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b) {
		d.err = ErrShort
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.Count(1)
	if d.err != nil {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// Strings reads a counted string slice; an empty one decodes as nil.
func (d *Decoder) Strings() []string {
	n := d.Count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.Str())
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Ints reads a slice written by AppendInts; an empty one decodes as nil.
func (d *Decoder) Ints() []int {
	n := d.Count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, int(d.Uvarint()))
	}
	return out
}

// IDs reads account ids written by AppendIDs; none decodes as nil.
func (d *Decoder) IDs() []socialnet.AccountID {
	n := d.Count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	ids := make([]socialnet.AccountID, n)
	for i := range ids {
		ids[i] = socialnet.AccountID(d.Varint())
	}
	return ids
}

// Words reads words written by AppendWords; none decodes as nil.
func (d *Decoder) Words() []uint64 {
	n := d.Count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = d.U64()
	}
	return ws
}

// Bool reads one byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) == 0 {
		d.err = ErrShort
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	if v > 1 {
		d.err = fmt.Errorf("codec: invalid bool byte %d", v)
		return false
	}
	return v == 1
}

// Time reads an instant written by AppendTime.
func (d *Decoder) Time() time.Time {
	set := d.Bool()
	ns := d.Varint()
	if d.err != nil || !set {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// U64 reads a little-endian 8-byte word.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.err = ErrShort
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// Float reads a float written by AppendFloat.
func (d *Decoder) Float() float64 { return math.Float64frombits(d.U64()) }

// CompactFloat reads a float written by AppendCompactFloat.
func (d *Decoder) CompactFloat() float64 {
	return math.Float64frombits(bits.ReverseBytes64(d.Uvarint()))
}

// Tweet reads a tweet written by AppendTweet into t. Empty slices decode
// as nil.
func (d *Decoder) Tweet(t *socialnet.Tweet) {
	t.ID = socialnet.TweetID(d.Varint())
	t.AuthorID = socialnet.AccountID(d.Varint())
	t.CreatedAt = d.Time()
	t.Kind = socialnet.TweetKind(d.Varint())
	t.Source = socialnet.Source(d.Varint())
	t.Text = d.Str()
	t.Topic = d.Str()
	t.Hashtags = d.Strings()
	t.URLs = d.Strings()
	t.Mentions = d.IDs()
	t.Spam = d.Bool()
	t.CampaignID = d.Int()
}

// Profile reads an account written by AppendProfile into a.
func (d *Decoder) Profile(a *socialnet.Account) {
	a.ID = socialnet.AccountID(d.Varint())
	a.ScreenName = d.Str()
	a.Name = d.Str()
	a.Description = d.Str()
	a.CreatedAt = d.Time()
	a.FriendsCount = d.Int()
	a.FollowersCount = d.Int()
	a.ListedCount = d.Int()
	a.FavouritesCount = d.Int()
	a.StatusesCount = d.Int()
	a.Verified = d.Bool()
	a.DefaultProfileImage = d.Bool()
	a.ProfileImageSeed = d.Varint()
	a.ProfileImageHash = imagehash.Hash{Hi: d.U64(), Lo: d.U64()}
	a.Kind = socialnet.AccountKind(d.Varint())
	a.CampaignID = d.Int()
	a.Suspended = d.Bool()
	a.SuspendedAt = d.Time()
	a.HashtagCategory = socialnet.HashtagCategory(d.Varint())
	a.TrendAffinity = socialnet.TrendState(d.Varint())
	a.TweetsPerHour = d.Float()
	a.MentionRate = d.Float()
	a.PreferredSource = socialnet.Source(d.Varint())
}

// Capture reads a capture written by AppendCapture, its tweet into t.
func (d *Decoder) Capture(t *socialnet.Tweet) (sender, receiver *socialnet.Account, groups []int) {
	d.Tweet(t)
	return d.Account(), d.Account(), d.Ints()
}

// Account reads an account written by AppendAccount; nil when it was
// absent or the input is corrupt.
func (d *Decoder) Account() *socialnet.Account {
	if !d.Bool() {
		return nil
	}
	a := &socialnet.Account{}
	d.Profile(a)
	a.SetLastPostAt(d.Time())
	if d.err != nil {
		return nil
	}
	return a
}
