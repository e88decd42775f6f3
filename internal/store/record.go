package store

import (
	"errors"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/codec"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// CaptureRecord is the WAL form of one monitored capture: the tweet, the
// sender/receiver profile snapshots frozen at match time, and the selector
// groups the capture was attributed to. The feature vector is deliberately
// absent — recovery re-runs extraction in stream order, which both
// rebuilds the extractor's behavioural state for post-recovery captures
// and reproduces the vector bit for bit.
type CaptureRecord struct {
	// Seq is the record's position in the capture stream (1-based,
	// assigned by Store.Append).
	Seq uint64
	// Tweet is the captured status update.
	Tweet socialnet.Tweet
	// Sender/Receiver are the profile snapshots taken on the stream
	// goroutine at match time (nil when the lookup missed).
	Sender   *socialnet.Account
	Receiver *socialnet.Account
	// Groups are the monitor group indices the capture counted toward.
	Groups []int
	// Src is the ingest-source id that delivered the tweet ("twitter",
	// "reddit"); empty for records written before the ingestion layer
	// existed. It rides as an optional trailing field, so old logs (and
	// the fuzz corpus) still decode.
	Src string
}

// Capture records use the hand-rolled binary codec of package codec
// instead of gob: appends sit on the streaming hot path (gob reflects per
// value), the format must be stable across processes for crash recovery,
// and a fixed byte-level layout is what FuzzWALRecord pins — any byte
// prefix either decodes to the encoded records or fails cleanly at a
// record boundary.
//
// Layout:
//
//	uvarint seq
//	capture: codec.AppendCapture (tweet, sender, receiver, groups)
//	src:     optional trailing string

// EncodeCapture appends rec's payload encoding to buf and returns it.
func EncodeCapture(buf []byte, rec *CaptureRecord) []byte {
	buf = codec.AppendUvarint(buf, rec.Seq)
	buf = codec.AppendCapture(buf, &rec.Tweet, rec.Sender, rec.Receiver, rec.Groups)
	if rec.Src != "" {
		// Optional trailing field: absent bytes decode to "", so records
		// written by older builds remain readable.
		buf = codec.AppendString(buf, rec.Src)
	}
	return buf
}

// DecodeCapture decodes one capture payload. Corrupt or truncated input
// returns an error, never a panic and never a silently partial record:
// trailing garbage after a structurally complete record is rejected too.
func DecodeCapture(payload []byte) (*CaptureRecord, error) {
	d := codec.NewDecoder(payload)
	rec := &CaptureRecord{}
	rec.Seq = d.Uvarint()
	rec.Sender, rec.Receiver, rec.Groups = d.Capture(&rec.Tweet)
	if d.Err() == nil && d.Len() != 0 {
		// Optional trailing source id. The encoder writes it only when
		// non-empty, so an empty decode here is stray bytes, not a field.
		if rec.Src = d.Str(); d.Err() == nil && rec.Src == "" {
			return nil, errors.New("store: empty trailing source id")
		}
	}
	if err := d.Finish("capture record"); err != nil {
		return nil, err
	}
	return rec, nil
}
