package codec

import (
	"errors"
	"math"
	"testing"
	"time"
)

// TestPrimitivesRoundTrip reads back every primitive, floats bit for bit
// (negative zero and a NaN payload included) in both forms.
func TestPrimitivesRoundTrip(t *testing.T) {
	at := time.Date(2018, 3, 10, 7, 8, 9, 10, time.UTC)
	floats := []float64{0, math.Copysign(0, -1), 1, 0.5, -3.25, 1e-300, math.Inf(-1),
		math.Float64frombits(0x7ff8000000000bad)}
	var b []byte
	b = AppendUvarint(b, 1<<63)
	b = AppendVarint(b, -7)
	b = AppendU64(b, 0xdeadbeef)
	b = AppendString(b, "héllo")
	b = AppendStrings(b, []string{"a", ""})
	b = AppendInts(b, []int{0, 300})
	b = AppendWords(AppendWords(b, []uint64{7, math.MaxUint64}), nil)
	b = AppendBool(b, true)
	b = AppendTime(b, at)
	b = AppendTime(b, time.Time{})
	for _, f := range floats {
		b = AppendCompactFloat(AppendFloat(b, f), f)
	}

	d := NewDecoder(b)
	if d.Uvarint() != 1<<63 || d.Int() != -7 || d.U64() != 0xdeadbeef || d.Str() != "héllo" {
		t.Fatal("integer or string mismatch")
	}
	if ss := d.Strings(); len(ss) != 2 || ss[0] != "a" || ss[1] != "" {
		t.Fatalf("strings = %q", ss)
	}
	if xs := d.Ints(); len(xs) != 2 || xs[1] != 300 {
		t.Fatalf("ints = %v", xs)
	}
	if ws, none := d.Words(), d.Words(); len(ws) != 2 || ws[1] != math.MaxUint64 || none != nil {
		t.Fatalf("words = %v, then %v", ws, none)
	}
	if !d.Bool() || !d.Time().Equal(at) || !d.Time().IsZero() {
		t.Fatal("bool or time mismatch")
	}
	for _, f := range floats {
		want := math.Float64bits(f)
		if got := math.Float64bits(d.Float()); got != want {
			t.Fatalf("float %x read back as %x", want, got)
		}
		if got := math.Float64bits(d.CompactFloat()); got != want {
			t.Fatalf("compact float %x read back as %x", want, got)
		}
	}
	if err := d.Finish("primitives"); err != nil {
		t.Fatal(err)
	}
	if n := len(AppendCompactFloat(nil, 3)); n > 2 {
		t.Errorf("compact 3.0 takes %d bytes, want at most 2", n)
	}
}

// TestDecoderRefusesWhatInputCannotHold: a count or length larger than the
// remaining bytes can encode fails before anything is allocated, and the
// failure latches.
func TestDecoderRefusesWhatInputCannotHold(t *testing.T) {
	b := AppendUvarint(nil, 3) // three elements of at least 8 bytes each
	b = append(b, make([]byte, 23)...)
	d := NewDecoder(b)
	if n := d.Count(8); n != 0 || !errors.Is(d.Err(), ErrShort) {
		t.Fatalf("Count = %d, err %v; want 0, ErrShort", n, d.Err())
	}
	if d.Uvarint() != 0 || d.Str() != "" || d.Bool() || d.Bytes(1) != nil {
		t.Fatal("reads after a failure returned data")
	}

	d = NewDecoder(AppendUvarint(nil, 1<<40))
	if s := d.Str(); s != "" || d.Err() == nil {
		t.Fatal("string longer than the input accepted")
	}
	d = NewDecoder([]byte{2})
	if d.Bool(); d.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
	d = NewDecoder([]byte{0, 1})
	d.Bool()
	if err := d.Finish("value"); err == nil {
		t.Fatal("trailing byte accepted")
	}
}
