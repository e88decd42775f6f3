package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"io/fs"
	"runtime"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// fuzzRecords derives a deterministic record sequence from fuzz input
// bytes so the fuzzer explores record shapes through the same corpus
// that drives the cut point.
func fuzzRecords(data []byte) []*CaptureRecord {
	n := 1 + len(data)%3
	recs := make([]*CaptureRecord, 0, n)
	at := func(i int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[i%len(data)]
	}
	for i := 0; i < n; i++ {
		rec := &CaptureRecord{
			Tweet: socialnet.Tweet{
				ID:       socialnet.TweetID(at(i)) - 60,
				AuthorID: socialnet.AccountID(at(i + 1)),
				Text:     string(data[:len(data)*(i+1)/(n+1)]),
				Spam:     at(i+2)%2 == 0,
			},
			Groups: []int{int(at(i+3)) % 8},
		}
		if at(i+4)%2 == 0 {
			rec.Sender = &socialnet.Account{
				ID:         socialnet.AccountID(at(i + 5)),
				ScreenName: string(data[len(data)*i/(n+1):]),
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

// FuzzWALRecord pins the recovery contract at the byte level: for ANY
// prefix of a well-formed segment, readSegment either delivers exactly
// the records whose frames fit the prefix (clean end or torn tail — no
// panic, no silent partial record), and raw DecodeCapture never panics
// on arbitrary bytes.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte("spam spam spam"), uint16(9))
	f.Add([]byte{0x01, 0xff, 0x80, 0x00}, uint16(40))
	f.Add(bytes.Repeat([]byte{0xab}, 64), uint16(200))
	f.Add([]byte("free prize http://sp.am #win @you"), uint16(65535))

	f.Fuzz(func(t *testing.T, data []byte, cutRaw uint16) {
		// Property 1: DecodeCapture on raw bytes never panics and never
		// returns a record together with an error.
		if rec, err := DecodeCapture(data); err != nil && rec != nil {
			t.Fatal("DecodeCapture returned both record and error")
		}

		// Property 2: segment prefix replay. Build a segment from the
		// derived records, remembering each record's end offset.
		recs := fuzzRecords(data)
		seg := []byte(walMagic)
		ends := []int{len(seg)}
		for i, rec := range recs {
			rec.Seq = uint64(i + 1)
			seg = appendFrame(seg, RecordCapture, EncodeCapture(nil, rec))
			ends = append(ends, len(seg))
		}
		cut := int(cutRaw) % (len(seg) + 1)

		var got []*CaptureRecord
		err := readSegment(bytes.NewReader(seg[:cut]), func(typ byte, payload []byte) error {
			if typ != RecordCapture {
				t.Fatalf("unexpected record type %d", typ)
			}
			rec, derr := DecodeCapture(payload)
			if derr != nil {
				t.Fatalf("checksummed frame failed decode: %v", derr)
			}
			got = append(got, rec)
			return nil
		})

		// The decoded records must be exactly those whose frames fit.
		want := 0
		for want < len(recs) && ends[want+1] <= cut {
			want++
		}
		if len(got) != want {
			t.Fatalf("cut=%d decoded %d records, want %d", cut, len(got), want)
		}
		for i := range got {
			if got[i].Seq != uint64(i+1) || got[i].Tweet.Text != recs[i].Tweet.Text {
				t.Fatalf("record %d corrupted by truncation at %d", i, cut)
			}
		}

		// And the error must classify the cut correctly: a cut on a
		// frame boundary past the magic is clean; anything shorter —
		// inside a frame or inside the magic itself (a segment created
		// but never fully flushed) — is a torn tail, never a hard error.
		onBoundary := false
		for _, e := range ends {
			if cut == e {
				onBoundary = true
			}
		}
		switch {
		case cut < len(walMagic):
			if !errors.Is(err, ErrTornTail) {
				t.Fatalf("cut=%d inside magic: err=%v, want ErrTornTail", cut, err)
			}
		case onBoundary:
			if err != nil {
				t.Fatalf("cut=%d on frame boundary: err=%v, want clean end", cut, err)
			}
		default:
			if !errors.Is(err, ErrTornTail) {
				t.Fatalf("cut=%d mid-frame: err=%v, want ErrTornTail", cut, err)
			}
		}
	})
}

// fileBackend serves one file's bytes under one name; readCheckpointFile
// only ever calls Open.
type fileBackend struct {
	Backend
	name string
	data []byte
}

func (b fileBackend) Open(name string) (io.ReadCloser, error) {
	if name != b.name {
		return nil, fs.ErrNotExist
	}
	return io.NopCloser(bytes.NewReader(b.data)), nil
}

// FuzzCheckpointFile pins the checkpoint reader against arbitrary file
// bytes: it either decodes a checkpoint whose Seq is the one in the file
// name or returns an error — no panic, and no allocation sized by a
// header's claim rather than by the bytes actually present.
func FuzzCheckpointFile(f *testing.F) {
	parts, err := encodeCheckpointFile(&Checkpoint{
		Seq:            7,
		TweetWatermark: 1234,
		Components:     map[string][]byte{"labels": []byte("cluster state"), "groups": {1, 2, 3}, "empty": {}},
	})
	if err != nil {
		f.Fatal(err)
	}
	valid := bytes.Join(parts, nil)
	lying := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(lying[8:12], MaxCheckpointSize)
	badCRC := bytes.Clone(valid)
	badCRC[len(badCRC)-1] ^= 0xff
	f.Add(valid, uint64(7))
	f.Add(valid[:len(valid)/2], uint64(7))
	f.Add(lying, uint64(7))
	f.Add(badCRC, uint64(7))
	f.Add(valid, uint64(8)) // a file whose name disagrees with its content

	f.Fuzz(func(t *testing.T, data []byte, seq uint64) {
		b := fileBackend{name: checkpointName(seq), data: data}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ck, err := readCheckpointFile(b, seq)
		runtime.ReadMemStats(&after)
		if err == nil && ck.Seq != seq {
			t.Fatalf("decoded checkpoint seq %d from file %d", ck.Seq, seq)
		}
		if err != nil && ck != nil {
			t.Fatal("readCheckpointFile returned both a checkpoint and an error")
		}
		// The payload buffer and the section map cost a small multiple of
		// the input; the header may claim up to MaxCheckpointSize (1 GiB).
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(data)) {
			t.Fatalf("reading a %d-byte file allocated %d bytes", len(data), grew)
		}
	})
}
