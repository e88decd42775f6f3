package core

import (
	"fmt"
	"io"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/codec"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/features"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// CaptureStore bounds the monitor's capture memory (DESIGN.md §12). It is
// a FIFO ring: Append past the capacity deterministically evicts the
// oldest capture, so a continuous stream holds at most Cap captures no
// matter how long it runs. Capacity zero keeps everything (the batch seed
// behaviour).
//
// The store is not internally synchronized: in the streaming pipeline only
// the tail's complete step appends, and the reporting paths (Snapshot,
// Range) run at drain quiescence.
type CaptureStore struct {
	capLimit int
	buf      []*Capture
	head     int // index of the oldest capture when the ring is saturated
	size     int
	evicted  uint64

	sizeGauge  *metrics.Gauge
	evictTotal *metrics.Counter
}

// NewCaptureStore creates a store bounded at capLimit captures (0 or
// negative keeps everything). reg receives the store's instrumentation;
// nil binds the process-wide default registry.
func NewCaptureStore(capLimit int, reg *metrics.Registry) *CaptureStore {
	if capLimit < 0 {
		capLimit = 0
	}
	if reg == nil {
		reg = metrics.Default()
	}
	return &CaptureStore{
		capLimit: capLimit,
		sizeGauge: reg.Gauge("ph_capture_store_size",
			"Captures currently retained by the bounded capture store."),
		evictTotal: reg.Counter("ph_capture_store_evicted_total",
			"Captures evicted (oldest-first) from the bounded capture store."),
	}
}

// Append retains c, evicting and returning the oldest capture when the
// store is at capacity (nil otherwise).
func (s *CaptureStore) Append(c *Capture) (evicted *Capture) {
	if s.capLimit <= 0 || s.size < s.capLimit {
		s.buf = append(s.buf, c)
		s.size++
		s.sizeGauge.Set(float64(s.size))
		return nil
	}
	// Saturated ring: overwrite the oldest slot.
	evicted = s.buf[s.head]
	s.buf[s.head] = c
	s.head = (s.head + 1) % s.capLimit
	s.evicted++
	s.evictTotal.Inc()
	return evicted
}

// Len reports the number of retained captures.
func (s *CaptureStore) Len() int { return s.size }

// Evicted reports how many captures have been dropped oldest-first.
func (s *CaptureStore) Evicted() uint64 { return s.evicted }

// Snapshot returns the retained captures, oldest first, in a freshly
// allocated slice: callers may reorder or truncate it without corrupting
// the store.
func (s *CaptureStore) Snapshot() []*Capture {
	out := make([]*Capture, 0, s.size)
	s.Range(func(_ int, c *Capture) bool {
		out = append(out, c)
		return true
	})
	return out
}

// Range visits the retained captures oldest-first without allocating,
// stopping early when fn returns false. i is the capture's position in
// retention order (0 = oldest retained).
func (s *CaptureStore) Range(fn func(i int, c *Capture) bool) {
	for i := 0; i < s.size; i++ {
		if !fn(i, s.buf[(s.head+i)%len(s.buf)]) {
			return
		}
	}
}

// Snapshot section layout (package codec primitives):
//
//	uvarint evicted
//	uvarint count, then per retained capture, oldest first:
//	  codec.AppendCapture: tweet, the sender and receiver snapshots
//	    frozen at match time, groups (the WAL record's body)
//	  source string, spam bool
//	  vector: each feature as codec.AppendCompactFloat
//
// Every field is a fact of the stream: the profiles are the match-time
// snapshots, never the live accounts, so the section's bytes depend only
// on the captures it covers, not on the hour at which it was cut. The
// trace, a live object graph tied to the in-process tracer ring, is
// deliberately dropped: a restored capture re-enters the pipeline
// untraced. The section carries no checksum of its own; the checkpoint
// file's CRC covers it.

// minCaptureBytes bounds one capture's encoding from below: the vector
// alone takes a byte per feature.
const minCaptureBytes = len(features.Vector{})

// WriteSnapshot writes the section EncodeSnapshot returns to w.
func (s *CaptureStore) WriteSnapshot(w io.Writer) error {
	if _, err := w.Write(s.EncodeSnapshot()); err != nil {
		return fmt.Errorf("capture store: write snapshot: %w", err)
	}
	return nil
}

// EncodeSnapshot returns the retained captures (oldest first) and the
// store's eviction count as a checkpoint section, in a buffer of its own
// that the caller may keep. Traces are not persisted; the unexported
// engine-side fields of accounts and tweets are outside the capture
// contract and are likewise dropped.
func (s *CaptureStore) EncodeSnapshot() []byte {
	b := make([]byte, 0, 16+s.size*640)
	b = codec.AppendUvarint(b, s.evicted)
	b = codec.AppendUvarint(b, uint64(s.size))
	s.Range(func(_ int, c *Capture) bool {
		b = appendCapture(b, c)
		return true
	})
	return b
}

func appendCapture(b []byte, c *Capture) []byte {
	var t socialnet.Tweet
	if c.Tweet != nil {
		t = *c.Tweet
	}
	b = codec.AppendCapture(b, &t, c.senderSnap, c.receiverSnap, c.Groups)
	b = codec.AppendString(b, c.Source)
	b = codec.AppendBool(b, c.Spam)
	for _, v := range c.Vector {
		b = codec.AppendCompactFloat(b, v)
	}
	return b
}

// RestoreSnapshot replaces the store's contents with a section written by
// EncodeSnapshot, decoded in place. Each capture is built as AdoptCapture
// builds a replayed one: it keeps the decoded match-time snapshots and
// resolves its live Sender through lookup. The whole section decodes
// before any state is touched: a truncated or corrupt one leaves the store
// unchanged and returns an error. The restored captures are rebuilt
// oldest-first through the same Append path, so a section wider than the
// store's own bound is re-evicted deterministically.
func (s *CaptureStore) RestoreSnapshot(b []byte, lookup func(socialnet.AccountID) *socialnet.Account) error {
	d := codec.NewDecoder(b)
	evicted := d.Uvarint()
	n := d.Count(minCaptureBytes)
	tweets := make([]socialnet.Tweet, n)
	caps := make([]Capture, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		sender, receiver, groups := d.Capture(&tweets[i])
		c := &caps[i]
		*c = adopted(&tweets[i], sender, receiver, groups, lookup)
		c.Source = d.Str()
		c.Spam = d.Bool()
		for j := range c.Vector {
			c.Vector[j] = d.CompactFloat()
		}
	}
	if err := d.Finish("capture snapshot"); err != nil {
		return fmt.Errorf("capture store: decode snapshot: %w", err)
	}
	s.buf = nil
	s.head = 0
	s.size = 0
	s.evicted = evicted
	for i := range caps {
		s.Append(&caps[i])
	}
	s.sizeGauge.Set(float64(s.size))
	return nil
}
