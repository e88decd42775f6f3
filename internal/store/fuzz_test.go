package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"reflect"
	"runtime"
	"slices"
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
// on arbitrary bytes. It then drives walkLog over segments of mixed
// record types whose sequences repeat, as a rewritten group's do, and
// requires it to admit exactly what a model of the admission rule does.
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

		// Property 3: the walker over mixed records and repeated seqs.
		fuzzWalk(t, data, cutRaw)
	})
}

// filesBackend serves whole files by name; readCheckpointFile and
// walkLog only ever call Open.
type filesBackend struct {
	Backend
	files map[string][]byte
}

func (b filesBackend) Open(name string) (io.ReadCloser, error) {
	data, ok := b.files[name]
	if !ok {
		return nil, fs.ErrNotExist
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

// fuzzWalk derives a log from data: each byte picks a record type, whether
// the record repeats an earlier sequence, and whether a new segment starts
// before it. The last segment is cut at cutRaw. walkLog, counting from a
// data-derived sequence, must return what the model below admits: a
// sequenced record when its seq is past the last one admitted, the first
// meta, and only the frames that fit the cut.
func fuzzWalk(t *testing.T, data []byte, cutRaw uint16) {
	if len(data) > 64 {
		data = data[:64]
	}
	var segs [][]byte
	var ends []int // frame ends in the last segment
	want, last := &Log{}, uint64(0)
	if len(data) > 0 {
		last = uint64(data[0] % 4)
	}
	after := last
	type pending struct {
		seq  uint64
		keep func()
	}
	var lastSeg []pending // the last segment's records, admitted once the cut is known
	admit := func(p pending) {
		if p.seq == 0 || p.seq > last {
			if p.seq != 0 {
				last = p.seq
			}
			p.keep()
		}
	}
	seq := uint64(0)
	for i, v := range data {
		if i == 0 || v&0x10 != 0 {
			for _, p := range lastSeg {
				admit(p)
			}
			segs, ends, lastSeg = append(segs, []byte(walMagic)), []int{len(walMagic)}, nil
		}
		if v&0x20 != 0 && seq > 1 {
			seq -= uint64(v>>6) % seq // a rewritten frame's copy
		} else {
			seq++
		}
		var typ byte
		var payload []byte
		var p pending
		switch v % 5 {
		case 0:
			rec := &CaptureRecord{Seq: seq, Tweet: socialnet.Tweet{ID: socialnet.TweetID(i)}}
			typ, payload = RecordCapture, EncodeCapture(nil, rec)
			p = pending{seq, func() { want.Captures = append(want.Captures, rec) }}
		case 1:
			hours := int(v % 7)
			typ, payload = RecordSimHours, encodeSimHours(nil, seq, hours)
			p = pending{seq, func() { want.SimHours += hours }}
		case 2:
			rr := &RotationRecord{Seq: seq, Hour: i, Counts: []int{int(v)}}
			typ, payload = RecordRotation, encodeRotation(nil, rr)
			p = pending{seq, func() { want.Rotations = append(want.Rotations, rr) }}
		case 3:
			accounts := []*socialnet.Account{{ID: socialnet.AccountID(v % 4), Name: fmt.Sprint(i)}, nil}
			typ, payload = RecordProfiles, encodeProfiles(nil, seq, accounts)
			p = pending{seq, func() { want.addProfiles(accounts) }}
		default:
			meta := fmt.Sprint("meta-", i)
			typ, payload = RecordMeta, []byte(meta)
			p = pending{0, func() {
				if want.Meta == "" {
					want.Meta = meta
				}
			}}
		}
		n := len(segs) - 1
		segs[n] = appendFrame(segs[n], typ, payload)
		ends = append(ends, len(segs[n]))
		lastSeg = append(lastSeg, p)
	}
	files := map[string][]byte{}
	firsts := make([]uint64, len(segs))
	for i, seg := range segs {
		if i == len(segs)-1 {
			cut := int(cutRaw) % (len(seg) + 1)
			if !slices.Contains(ends, cut) {
				want.Torn++
			}
			for j, p := range lastSeg {
				if ends[j+1] <= cut {
					admit(p)
				}
			}
			seg = seg[:cut]
		}
		firsts[i] = uint64(i + 1)
		files[segmentName(firsts[i])] = seg
	}

	got, gotLast, err := walkLog(filesBackend{files: files}, firsts, after, true)
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	if gotLast != last {
		t.Fatalf("walk admitted up to seq %d, want %d", gotLast, last)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("walk read %+v, want %+v", got, want)
	}
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
		b := filesBackend{files: map[string][]byte{checkpointName(seq): data}}
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
