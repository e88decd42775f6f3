package features

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/codec"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// The extractor accumulates behavioural state in stream order, so a crash
// mid-stream loses every per-account history. EncodeSnapshot/RestoreSnapshot
// serialize that state for the durable checkpoint (DESIGN.md §14): an
// extractor restored from a snapshot produces bit-identical vectors for the
// remainder of the stream, because every behavioural feature is a pure
// function of the state captured here.
//
// Section layout (package codec primitives); every map is written in a
// fixed order, so the same state always encodes to the same bytes:
//
//	tau float
//	histories by ascending account id: id, kind and source counts,
//	          total, last tweet time, interval sum and count
//	pairs sorted by (a, b): a, b, count
//	textSeen, envScores by sorted key: text and count, key and score
//	lastPost by ascending account id: id, time
//
// Each list is prefixed with its uvarint length.

// Lower bounds on one encoded entry of each list, which keep a corrupt
// length from driving an allocation the input cannot back.
const (
	minHistoryBytes = 8 + len(history{}.kindCounts) + len(history{}.sourceCounts)
	minPairBytes    = 3
	minTextBytes    = 2
	minEnvBytes     = 9
	minLastBytes    = 3
)

// WriteSnapshot writes the section EncodeSnapshot returns to w.
func (e *Extractor) WriteSnapshot(w io.Writer) error {
	if _, err := w.Write(e.EncodeSnapshot()); err != nil {
		return fmt.Errorf("features: write snapshot: %w", err)
	}
	return nil
}

// EncodeSnapshot returns the extractor's behavioural state as a
// checkpoint section, in a buffer of its own that the caller may keep.
func (e *Extractor) EncodeSnapshot() []byte {
	b := make([]byte, 0, 64+
		len(e.histories)*(minHistoryBytes+24)+len(e.pairs)*8+
		len(e.textSeen)*48+len(e.envScores)*24+len(e.lastPost)*16)
	b = codec.AppendFloat(b, e.tau)

	b = codec.AppendUvarint(b, uint64(len(e.histories)))
	for _, id := range sortedKeys(e.histories) {
		h := e.histories[id]
		b = codec.AppendVarint(b, int64(id))
		for _, n := range h.kindCounts {
			b = codec.AppendVarint(b, n)
		}
		for _, n := range h.sourceCounts {
			b = codec.AppendVarint(b, n)
		}
		b = codec.AppendVarint(b, h.total)
		b = codec.AppendTime(b, h.lastTweetAt)
		b = codec.AppendVarint(b, int64(h.intervalSum))
		b = codec.AppendVarint(b, h.intervalN)
	}

	pairs := make([]pairKey, 0, len(e.pairs))
	for k := range e.pairs {
		pairs = append(pairs, k)
	}
	slices.SortFunc(pairs, func(x, y pairKey) int {
		return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b))
	})
	b = codec.AppendUvarint(b, uint64(len(pairs)))
	for _, k := range pairs {
		b = codec.AppendVarint(b, int64(k.a))
		b = codec.AppendVarint(b, int64(k.b))
		b = codec.AppendVarint(b, int64(e.pairs[k]))
	}

	b = codec.AppendUvarint(b, uint64(len(e.textSeen)))
	for _, text := range sortedKeys(e.textSeen) {
		b = codec.AppendString(b, text)
		b = codec.AppendVarint(b, int64(e.textSeen[text]))
	}
	b = codec.AppendUvarint(b, uint64(len(e.envScores)))
	for _, key := range sortedKeys(e.envScores) {
		b = codec.AppendString(b, key)
		b = codec.AppendFloat(b, e.envScores[key])
	}
	b = codec.AppendUvarint(b, uint64(len(e.lastPost)))
	for _, id := range sortedKeys(e.lastPost) {
		b = codec.AppendVarint(b, int64(id))
		b = codec.AppendTime(b, e.lastPost[id])
	}
	return b
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// RestoreSnapshot replaces the extractor's behavioural state with a
// section written by EncodeSnapshot, decoded in place. On decode error the
// extractor is left unchanged.
func (e *Extractor) RestoreSnapshot(b []byte) error {
	d := codec.NewDecoder(b)
	tau := d.Float()

	n := d.Count(minHistoryBytes)
	histories := make(map[socialnet.AccountID]*history, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		id := socialnet.AccountID(d.Varint())
		h := &history{}
		for j := range h.kindCounts {
			h.kindCounts[j] = d.Varint()
		}
		for j := range h.sourceCounts {
			h.sourceCounts[j] = d.Varint()
		}
		h.total = d.Varint()
		h.lastTweetAt = d.Time()
		h.intervalSum = time.Duration(d.Varint())
		h.intervalN = d.Varint()
		histories[id] = h
	}

	n = d.Count(minPairBytes)
	pairs := make(map[pairKey]int, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		k := pairKey{a: socialnet.AccountID(d.Varint()), b: socialnet.AccountID(d.Varint())}
		pairs[k] = d.Int()
	}

	n = d.Count(minTextBytes)
	textSeen := make(map[string]int, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		text := d.Str()
		textSeen[text] = d.Int()
	}

	n = d.Count(minEnvBytes)
	envScores := make(map[string]float64, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		key := d.Str()
		envScores[key] = d.Float()
	}

	n = d.Count(minLastBytes)
	lastPost := make(map[socialnet.AccountID]time.Time, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		id := socialnet.AccountID(d.Varint())
		lastPost[id] = d.Time()
	}
	if err := d.Finish("extractor snapshot"); err != nil {
		return fmt.Errorf("features: decode snapshot: %w", err)
	}
	e.tau = tau
	e.histories = histories
	e.pairs = pairs
	e.textSeen = textSeen
	e.envScores = envScores
	e.lastPost = lastPost
	return nil
}
