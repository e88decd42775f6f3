package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/codec"
)

// Checkpoint is a consistent cut of the pipeline's derived state at one
// capture sequence number. The store treats component payloads as opaque
// blobs — the sniffer fills them with the capture ring, the label-store
// cluster indices, the extractor behaviour state, the per-group capture
// statistics, and the online detector's labeled window — so new
// components ride along without a store format change.
//
// Consistency contract: the writer must be quiescent across every
// component when it cuts the checkpoint (the sniffer drains the stage
// graph first), so a single Seq covers all components and recovery
// replays exactly the WAL records with Seq greater than it.
type Checkpoint struct {
	// Seq is the last capture sequence the checkpoint covers.
	Seq uint64
	// TweetWatermark is the stream position (engine tweet id) of the
	// last covered capture; a recovering sniffer skips stream tweets at
	// or below max(checkpoint, replay) watermark to resume exactly-once.
	TweetWatermark int64
	// Components maps a component name to its serialized state.
	Components map[string][]byte
}

// Checkpoint file format (DESIGN.md §14):
//
//	[8]byte  magic "PHCKP003"
//	uint32   payload length (little-endian)
//	uint32   CRC-32C over the payload
//	payload: uvarint Seq, varint TweetWatermark, then one section per
//	         component in name order: string name, uvarint length, bytes
//
// The CRC is the WAL's framing, so a half-written or bit-flipped
// checkpoint is detected and recovery falls back to the previous one
// instead of silently loading garbage. Each section holds a component's
// own binary encoding, which the file frames as is: writing a checkpoint
// costs one pass over its bytes for the CRC and one for the write.
const checkpointMagic = "PHCKP003"

// oldCheckpointFormats names the formats of older builds by their magic.
// Their files are refused by that name rather than reported as corruption.
var oldCheckpointFormats = map[string]string{
	"PHCKP001": "gob sections",
	"PHCKP002": "captures and label users as live profiles at the cut",
}

// MaxCheckpointSize bounds a checkpoint's payload, for the writer and the
// reader alike. A checkpoint holds the whole derived state, which grows
// with the history it covers (≈ 1.6 MB per simulated hour at bench scale,
// seed 7: 6.5 MB after four hours, 13.2 MB after eight), so it outgrows
// the WAL's per-record MaxRecordSize within about ten hours; the bound
// here only keeps the length inside the header's 32 bits with room to
// spare.
const MaxCheckpointSize = 1 << 30

// checkpointHeaderSize is the file header: magic, payload length, CRC.
const checkpointHeaderSize = 16

// encodeCheckpointFile frames ck for writing and returns the file as the
// parts to write in order: the header, Seq and watermark, and each
// section's name and length, interleaved with the component bytes
// themselves, which are never copied.
func encodeCheckpointFile(ck *Checkpoint) ([][]byte, error) {
	names := make([]string, 0, len(ck.Components))
	for k := range ck.Components {
		names = append(names, k)
	}
	sort.Strings(names)
	frame := make([]byte, checkpointHeaderSize, checkpointHeaderSize+32+len(names)*32)
	frame = codec.AppendUvarint(frame, ck.Seq)
	frame = codec.AppendVarint(frame, ck.TweetWatermark)
	cuts := make([]int, len(names))
	size := 0
	for i, k := range names {
		frame = codec.AppendString(frame, k)
		frame = codec.AppendUvarint(frame, uint64(len(ck.Components[k])))
		cuts[i] = len(frame)
		size += len(ck.Components[k])
	}
	size += len(frame) - checkpointHeaderSize
	if size > MaxCheckpointSize {
		return nil, fmt.Errorf("store: checkpoint %d is %d bytes, over the %d limit",
			ck.Seq, size, MaxCheckpointSize)
	}
	parts := make([][]byte, 0, 2*len(names)+1)
	prev := 0
	for i, k := range names {
		parts = append(parts, frame[prev:cuts[i]], ck.Components[k])
		prev = cuts[i]
	}
	if prev < len(frame) {
		parts = append(parts, frame[prev:]) // no components
	}
	crc := crc32.Update(0, castagnoli, parts[0][checkpointHeaderSize:])
	for _, p := range parts[1:] {
		crc = crc32.Update(crc, castagnoli, p)
	}
	copy(frame[:8], checkpointMagic)
	binary.LittleEndian.PutUint32(frame[8:12], uint32(size))
	binary.LittleEndian.PutUint32(frame[12:16], crc)
	return parts, nil
}

// writeCheckpointFile atomically publishes ck: write to a temp file,
// sync, close, then rename onto the final name.
func writeCheckpointFile(b Backend, ck *Checkpoint) error {
	parts, err := encodeCheckpointFile(ck)
	if err != nil {
		return err
	}
	name := checkpointName(ck.Seq)
	tmp := name + tmpSuffix
	f, err := b.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: create checkpoint: %w", err)
	}
	var werr error
	for _, p := range parts {
		if _, werr = f.Write(p); werr != nil {
			break
		}
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = b.Remove(tmp)
		return fmt.Errorf("store: write checkpoint: %w", werr)
	}
	if err := b.Rename(tmp, name); err != nil {
		_ = b.Remove(tmp)
		return fmt.Errorf("store: publish checkpoint: %w", err)
	}
	return nil
}

// readCheckpointFile loads and verifies one checkpoint file. The
// components it returns alias the file's payload buffer.
func readCheckpointFile(b Backend, seq uint64) (*Checkpoint, error) {
	f, err := b.Open(checkpointName(seq))
	if err != nil {
		return nil, fmt.Errorf("store: open checkpoint %d: %w", seq, err)
	}
	defer func() { _ = f.Close() }()
	var hdr [checkpointHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("store: checkpoint %d header: %w", seq, err)
	}
	if magic := string(hdr[:8]); magic != checkpointMagic {
		if format, ok := oldCheckpointFormats[magic]; ok {
			return nil, fmt.Errorf("store: checkpoint %d: older checkpoint format %s (%s), which this build does not read",
				seq, magic, format)
		}
		return nil, fmt.Errorf("store: checkpoint %d bad magic", seq)
	}
	length := binary.LittleEndian.Uint32(hdr[8:12])
	wantCRC := binary.LittleEndian.Uint32(hdr[12:16])
	if length > MaxCheckpointSize {
		return nil, fmt.Errorf("store: checkpoint %d implausible length %d", seq, length)
	}
	// The buffer grows with the bytes that actually arrive, so a header
	// that lies about the length costs no more memory than the file holds.
	var payload bytes.Buffer
	if n, err := io.CopyN(&payload, f, int64(length)); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("store: checkpoint %d payload (%d of %d bytes): %w", seq, n, length, err)
	}
	if crc32.Checksum(payload.Bytes(), castagnoli) != wantCRC {
		return nil, fmt.Errorf("store: checkpoint %d checksum mismatch", seq)
	}
	ck, err := decodeCheckpoint(payload.Bytes())
	if err != nil {
		return nil, fmt.Errorf("store: decode checkpoint %d: %w", seq, err)
	}
	if ck.Seq != seq {
		return nil, fmt.Errorf("store: checkpoint file %d claims seq %d", seq, ck.Seq)
	}
	return ck, nil
}

// decodeCheckpoint parses a verified payload. Sections must come in
// strictly ascending name order, as the writer puts them.
func decodeCheckpoint(payload []byte) (*Checkpoint, error) {
	d := codec.NewDecoder(payload)
	ck := &Checkpoint{Components: make(map[string][]byte)}
	ck.Seq = d.Uvarint()
	ck.TweetWatermark = d.Varint()
	prev := ""
	for i := 0; d.Err() == nil && d.Len() > 0; i++ {
		name := d.Str()
		body := d.Bytes(d.Count(1))
		if d.Err() == nil && i > 0 && name <= prev {
			return nil, fmt.Errorf("section %q follows %q", name, prev)
		}
		ck.Components[name], prev = body, name
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return ck, nil
}
