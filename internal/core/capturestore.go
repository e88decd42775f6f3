package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"

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

// Cap reports the configured bound (0 = unbounded).
func (s *CaptureStore) Cap() int { return s.capLimit }

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

// captureRecord is the spill-to-disk form of one capture. Pointers are
// flattened to values (with presence flags) so gob never meets a nil
// pointer, and the trace — a live object graph tied to the in-process
// tracer ring — is deliberately dropped: a restored capture re-enters the
// pipeline untraced.
type captureRecord struct {
	Tweet       socialnet.Tweet
	Sender      socialnet.Account
	HasSender   bool
	Receiver    socialnet.Account
	HasReceiver bool
	Groups      []int
	Vector      features.Vector
	Spam        bool
}

// captureSnapshot is the gob envelope WriteSnapshot emits.
type captureSnapshot struct {
	Cap     int
	Evicted uint64
	Records []captureRecord
}

// Snapshot envelope: the gob payload is framed by a magic string, its
// length, and a CRC-32C, so a spill file truncated or bit-flipped at rest
// fails loudly at load time instead of gob silently decoding garbage into
// plausible-looking captures.
const (
	captureSnapshotMagic = "PHCAP001"
	// captureSnapshotMaxLen bounds the declared payload length so a
	// corrupted header cannot drive a giant allocation.
	captureSnapshotMaxLen = 1 << 32
)

var captureCRCTable = crc32.MakeTable(crc32.Castagnoli)

// WriteSnapshot spills the retained captures (oldest first) to w as a
// checksummed gob envelope, preserving the store's bound and eviction
// count. Traces are not persisted; the unexported engine-side fields of
// accounts and tweets are outside the capture contract and are likewise
// dropped.
func (s *CaptureStore) WriteSnapshot(w io.Writer) error {
	var payload bytes.Buffer
	if err := s.encodeSnapshot(&payload); err != nil {
		return err
	}
	hdr := make([]byte, 0, len(captureSnapshotMagic)+12)
	hdr = append(hdr, captureSnapshotMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(payload.Len()))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(payload.Bytes(), captureCRCTable))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("capture store: write snapshot header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("capture store: write snapshot payload: %w", err)
	}
	return nil
}

func (s *CaptureStore) encodeSnapshot(w io.Writer) error {
	snap := captureSnapshot{Cap: s.capLimit, Evicted: s.evicted}
	snap.Records = make([]captureRecord, 0, s.size)
	s.Range(func(_ int, c *Capture) bool {
		rec := captureRecord{
			Groups: c.Groups,
			Vector: c.Vector,
			Spam:   c.Spam,
		}
		if c.Tweet != nil {
			rec.Tweet = *c.Tweet
		}
		if c.Sender != nil {
			rec.Sender = *c.Sender
			rec.HasSender = true
		}
		if c.Receiver != nil {
			rec.Receiver = *c.Receiver
			rec.HasReceiver = true
		}
		snap.Records = append(snap.Records, rec)
		return true
	})
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("capture store: encode snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot replaces the store's contents with a snapshot previously
// written by WriteSnapshot. The envelope checksum is verified before any
// state is touched — a truncated or corrupted spill leaves the store
// unchanged and returns an error. The restored captures are rebuilt
// oldest-first through the same Append path, so a snapshot wider than the
// store's own bound is re-evicted deterministically.
func (s *CaptureStore) ReadSnapshot(r io.Reader) error {
	hdr := make([]byte, len(captureSnapshotMagic)+12)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("capture store: read snapshot header: %w", err)
	}
	if string(hdr[:len(captureSnapshotMagic)]) != captureSnapshotMagic {
		return fmt.Errorf("capture store: not a capture snapshot (bad magic)")
	}
	n := binary.LittleEndian.Uint64(hdr[len(captureSnapshotMagic):])
	wantCRC := binary.LittleEndian.Uint32(hdr[len(captureSnapshotMagic)+8:])
	if n > captureSnapshotMaxLen {
		return fmt.Errorf("capture store: snapshot declares %d payload bytes", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return fmt.Errorf("capture store: snapshot truncated: %w", err)
	}
	if got := crc32.Checksum(payload, captureCRCTable); got != wantCRC {
		return fmt.Errorf("capture store: snapshot checksum mismatch (%08x != %08x)", got, wantCRC)
	}
	var snap captureSnapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return fmt.Errorf("capture store: decode snapshot: %w", err)
	}
	s.buf = nil
	s.head = 0
	s.size = 0
	s.evicted = snap.Evicted
	for i := range snap.Records {
		rec := &snap.Records[i]
		c := &Capture{
			Tweet:  &rec.Tweet,
			Groups: rec.Groups,
			Vector: rec.Vector,
			Spam:   rec.Spam,
		}
		if rec.HasSender {
			c.Sender = &rec.Sender
		}
		if rec.HasReceiver {
			c.Receiver = &rec.Receiver
		}
		c.senderSnap = c.Sender
		c.receiverSnap = c.Receiver
		s.Append(c)
	}
	s.sizeGauge.Set(float64(s.size))
	return nil
}
