package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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

// Checkpoint files wrap the gob payload in the same CRC framing the WAL
// uses (magic, length, CRC-32C), so a half-written or bit-flipped
// checkpoint is detected and recovery falls back to the previous one
// instead of silently loading garbage.
const checkpointMagic = "PHCKP001"

// MaxCheckpointSize bounds a checkpoint's payload, for the writer and the
// reader alike. A checkpoint holds the whole derived state, which grows
// with the history it covers (≈ 1.5 MB per simulated hour at bench scale:
// 12 MB after seven hours), so it outgrows the WAL's per-record
// MaxRecordSize within about ten hours; the bound here only keeps the
// length inside the header's 32 bits with room to spare.
const MaxCheckpointSize = 1 << 30

// checkpointHeaderSize is the file header: magic, payload length, CRC.
const checkpointHeaderSize = 16

// encodeCheckpointFile returns ck's file bytes: the header, then the gob
// payload it frames. The buffer is sized from the components up front, so
// the multi-megabyte payload is encoded once and never regrown.
func encodeCheckpointFile(ck *Checkpoint) ([]byte, error) {
	size := checkpointHeaderSize + 256 // gob type descriptors and fields
	for k, v := range ck.Components {
		size += len(k) + len(v) + 2*binary.MaxVarintLen64
	}
	buf := bytes.NewBuffer(make([]byte, checkpointHeaderSize, size))
	if err := gob.NewEncoder(buf).Encode(ck); err != nil {
		return nil, fmt.Errorf("store: encode checkpoint: %w", err)
	}
	file := buf.Bytes()
	payload := file[checkpointHeaderSize:]
	if len(payload) > MaxCheckpointSize {
		return nil, fmt.Errorf("store: checkpoint %d is %d bytes, over the %d limit",
			ck.Seq, len(payload), MaxCheckpointSize)
	}
	copy(file[:8], checkpointMagic)
	binary.LittleEndian.PutUint32(file[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(file[12:16], crc32.Checksum(payload, castagnoli))
	return file, nil
}

// writeCheckpointFile atomically publishes ck: encode to a temp file,
// sync, close, then rename onto the final name.
func writeCheckpointFile(b Backend, ck *Checkpoint) error {
	file, err := encodeCheckpointFile(ck)
	if err != nil {
		return err
	}
	name := checkpointName(ck.Seq)
	tmp := name + tmpSuffix
	f, err := b.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: create checkpoint: %w", err)
	}
	_, werr := f.Write(file)
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

// readCheckpointFile loads and verifies one checkpoint file.
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
	if string(hdr[:8]) != checkpointMagic {
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
	ck := &Checkpoint{}
	if err := gob.NewDecoder(&payload).Decode(ck); err != nil {
		return nil, fmt.Errorf("store: decode checkpoint %d: %w", seq, err)
	}
	if ck.Seq != seq {
		return nil, fmt.Errorf("store: checkpoint file %d claims seq %d", seq, ck.Seq)
	}
	return ck, nil
}
