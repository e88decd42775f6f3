package label

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil/texttest"
)

// FuzzStripMentions checks the invariants of texttest.StripMentions, the
// reference textutil.NormalizeTweet's mention handling is held to, on
// arbitrary input: no panic, no @-prefixed field survives, non-mention
// fields survive in order, and the function is idempotent.
func FuzzStripMentions(f *testing.F) {
	f.Add("@alice hello @bob world")
	f.Add("no mentions here")
	f.Add("@@double @ lone\t@tab\nnewline")
	f.Add("  leading and trailing  ")
	f.Add("@only @mentions @here")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		out := texttest.StripMentions(s)
		for _, field := range strings.Fields(out) {
			if strings.HasPrefix(field, "@") {
				t.Fatalf("texttest.StripMentions(%q) = %q keeps mention %q", s, out, field)
			}
		}
		// Exactly the non-mention fields survive, in order.
		var want []string
		for _, field := range strings.Fields(s) {
			if !strings.HasPrefix(field, "@") {
				want = append(want, field)
			}
		}
		if got := strings.Join(want, " "); got != out {
			t.Fatalf("texttest.StripMentions(%q) = %q, want %q", s, out, got)
		}
		if again := texttest.StripMentions(out); again != out {
			t.Fatalf("not idempotent: %q → %q → %q", s, out, again)
		}
	})
}

// FuzzClassCount checks classCount on arbitrary Σ-Seq-ish keys: no panic,
// the count never exceeds the distinct non-digit runes, digits never
// count, and prefixing a digit never changes the result.
func FuzzClassCount(f *testing.F) {
	f.Add("a3A2d1")
	f.Add("")
	f.Add("123456")
	f.Add("aAdso")
	f.Add("ααβ12")
	f.Fuzz(func(t *testing.T, seq string) {
		n := classCount(seq)
		distinct := make(map[rune]struct{})
		for _, r := range seq {
			if r >= '0' && r <= '9' {
				continue
			}
			distinct[r] = struct{}{}
		}
		if n != len(distinct) {
			t.Fatalf("classCount(%q) = %d, want %d distinct non-digit runes", seq, n, len(distinct))
		}
		if m := classCount("7" + seq + "0"); m != n {
			t.Fatalf("digit padding changed count: %d vs %d", m, n)
		}
		_ = utf8.ValidString(seq) // invalid UTF-8 must terminate too
	})
}

// FuzzStoreSnapshot holds the label store's restore to the codec's
// contract on arbitrary bytes: it restores or fails cleanly, never panics
// and never allocates past a small multiple of the input. A decoded
// section re-encodes to bytes that decode and re-encode to themselves.
func FuzzStoreSnapshot(f *testing.F) {
	st := NewStore(DefaultConfig())
	for i, name := range []string{"alice01", "alice02", "bob"} {
		a := &socialnet.Account{ID: socialnet.AccountID(i + 1), ScreenName: name,
			Description: "gardener and amateur beekeeper, mostly"}
		st.Add(&socialnet.Tweet{ID: socialnet.TweetID(i + 1), AuthorID: a.ID,
			Text: "win a free prize now at http://sp.am #win"}, a, a)
	}
	valid := mustEncode(f, st)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(mustEncode(f, NewStore(DefaultConfig())))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := NewStore(DefaultConfig())
		if grew := allocated(func() { _ = fresh.RestoreSnapshot(data, nil) }); grew > 1<<20+64*uint64(len(data)) {
			t.Fatalf("restoring %d bytes allocated %d", len(data), grew)
		}
		snap, err := decodeStoreSnapshot(data)
		if err != nil {
			if snap != nil {
				t.Fatal("decoder returned both a snapshot and an error")
			}
			return
		}
		once := encodeStoreSnapshot(snap)
		again, err := decodeStoreSnapshot(once)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if twice := encodeStoreSnapshot(again); !bytes.Equal(once, twice) {
			t.Fatal("re-encoding a decoded snapshot is not stable")
		}
	})
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
