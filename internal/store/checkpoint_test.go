package store

import (
	"bytes"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/codec"
)

// TestCheckpointSections pins the checkpoint payload's section rules: the
// writer frames components in name order, so the same checkpoint always
// gives the same file, and the reader takes sections only in strictly
// ascending name order and whole.
func TestCheckpointSections(t *testing.T) {
	ck := &Checkpoint{Seq: 3, TweetWatermark: -9, Components: map[string][]byte{
		"labels": []byte("label state"), "captures": {1, 2}, "empty": {},
	}}
	file := func() []byte {
		parts, err := encodeCheckpointFile(ck)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Join(parts, nil)
	}
	first := file()
	for i := 0; i < 10; i++ {
		if !bytes.Equal(file(), first) {
			t.Fatal("one checkpoint framed into two different files")
		}
	}
	got, err := decodeCheckpoint(first[checkpointHeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 3 || got.TweetWatermark != -9 || len(got.Components) != 3 ||
		string(got.Components["labels"]) != "label state" || len(got.Components["empty"]) != 0 {
		t.Fatalf("decoded %+v", got)
	}

	payload := func(names ...string) []byte {
		b := codec.AppendVarint(codec.AppendUvarint(nil, 3), 0)
		for _, n := range names {
			b = codec.AppendUvarint(codec.AppendString(b, n), 1)
			b = append(b, 'x')
		}
		return b
	}
	for name, p := range map[string][]byte{
		"descending": payload("b", "a"),
		"duplicate":  payload("a", "a"),
		"cut":        payload("a", "b")[:len(payload("a", "b"))-1],
	} {
		if _, err := decodeCheckpoint(p); err == nil {
			t.Errorf("%s sections accepted", name)
		}
	}
	if _, err := decodeCheckpoint(payload("a", "b")); err != nil {
		t.Errorf("ascending sections rejected: %v", err)
	}
}
