package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/codec"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
)

// damagedResponse is one failure class of the response reader: its name,
// a response, the batch size it is read for, and whether the reader must
// fail with codec.ErrShort.
type damagedResponse struct {
	name  string
	resp  []byte
	want  int
	short bool
}

// damagedResponses builds every failure class from clean, a worker's
// response to a two-capture batch, in a fixed order so each is always the
// same fuzz seed.
func damagedResponses(t testing.TB, clean []byte) []damagedResponse {
	t.Helper()
	// Walk clean to where the first result's user-prep flag sits and to
	// where the telemetry starts.
	d := codec.NewDecoder(clean)
	d.Count(minResultBytes)
	var r result
	for range r.Vec {
		d.CompactFloat()
	}
	d.Str()
	d.Words()
	flagAt := len(clean) - d.Len()
	d = codec.NewDecoder(clean)
	for range d.Count(minResultBytes) {
		readResult(d, &r)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	telAt := len(clean) - d.Len()

	withCount := func(n uint64) []byte { return append(codec.AppendUvarint(nil, n), clean[1:]...) }
	withTelemetry := func(tel ...byte) []byte { return append(bytes.Clone(clean[:telAt]), tel...) }
	badFlag := bytes.Clone(clean)
	badFlag[flagAt] = 2
	return []damagedResponse{
		{"torn result", clean[:len(clean)/2], 2, true},
		{"telemetry missing", clean[:telAt], 2, true},
		{"bad user-prep flag", badFlag, 2, false},
		{"count ≠ results", withCount(3), 3, true},
		{"trailing byte", append(bytes.Clone(clean), 0), 2, false},
		{"count ≠ batch", clean, 3, false},
		{"torn telemetry", clean[:len(clean)-1], 2, true},
		{"telemetry overflow", withTelemetry(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 0), 2, true},
		{"count beyond input", withCount(100)[:minResultBytes*3], 100, true},
		{"empty response", nil, 2, true},
		{"count overflow", withCount(1 << 63), 2, true},
	}
}

// extractResponse is a worker's response to a two-capture batch.
func extractResponse(t testing.TB) []byte {
	t.Helper()
	batch, _ := matchedBatch(t, 2)
	resp, err := NewWorkerCore(label.DefaultConfig()).Extract(appendRequest(nil, batch))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// FuzzExtractResponse fuzzes the one decoder the extract wire adds, the
// coordinator's response reader: any bytes either decode to exactly the
// batch's count of results plus the worker's telemetry, or fail — never a
// panic, never a short slice the shard would index past, never an
// allocation the input cannot back, never telemetry reaching the worker
// gauges from a response readResults refused. FuzzExtractRequest holds the
// worker's side.
func FuzzExtractResponse(f *testing.F) {
	clean := extractResponse(f)
	f.Add(clean, uint8(2))
	for _, d := range damagedResponses(f, clean) {
		f.Add(d.resp, uint8(d.want))
	}
	f.Fuzz(func(t *testing.T, resp []byte, want uint8) {
		results, tel, err := readResults(resp, int(want))
		if err != nil {
			if results != nil || tel != (telemetry{}) {
				t.Fatal("readResults returned results or telemetry together with an error")
			}
			return
		}
		if len(results) != int(want) {
			t.Fatalf("%d results for a batch of %d", len(results), want)
		}
	})
}

// TestExtractResponseRefusesDamage: a clean response opens with its result
// count and reads back whole, and every failure class of the fuzz seeds is
// refused for the reason it names.
func TestExtractResponseRefusesDamage(t *testing.T) {
	clean := extractResponse(t)
	if n, _ := binary.Uvarint(clean); n != 2 {
		t.Fatalf("response opens with %d, want the result count 2", n)
	}
	if results, tel, err := readResults(clean, 2); err != nil || len(results) != 2 || tel.ElapsedNS == 0 {
		t.Fatalf("clean response: %d results, telemetry %+v, error %v", len(results), tel, err)
	}
	for _, d := range damagedResponses(t, clean) {
		results, tel, err := readResults(d.resp, d.want)
		if err == nil || results != nil || tel != (telemetry{}) || errors.Is(err, codec.ErrShort) != d.short {
			t.Errorf("%s: %d results, telemetry %+v, error %v", d.name, len(results), tel, err)
		}
	}
}

// damagedRequests returns two refusals built from a one-capture request:
// its length prefix claiming more than the body holds, and its capture
// framed with a trailing byte.
func damagedRequests(one []byte) (pastBody, trailing []byte) {
	pastBody = bytes.Clone(one)
	binary.LittleEndian.PutUint32(pastBody, uint32(len(one)))
	trailing = append(bytes.Clone(one), 0)
	binary.LittleEndian.PutUint32(trailing, uint32(len(trailing)-4))
	return pastBody, trailing
}

// TestExtractRequestRejectsGarbage: the worker answers a request it cannot
// decode with an error and no partial response.
func TestExtractRequestRejectsGarbage(t *testing.T) {
	batch, _ := matchedBatch(t, 2)
	req := appendRequest(nil, batch)
	pastBody, trailing := damagedRequests(appendRequest(nil, batch[:1]))
	core := NewWorkerCore(label.DefaultConfig())
	for name, bad := range map[string][]byte{
		"torn prefix":    req[:2],
		"torn capture":   req[:len(req)-1],
		"bad capture":    append([]byte{3, 0, 0, 0}, "xyz"...),
		"size past body": pastBody,
		"trailing byte":  trailing,
	} {
		if resp, err := core.Extract(bad); err == nil || resp != nil {
			t.Fatalf("%s: response %q, error %v", name, resp, err)
		}
	}
	resp, err := core.Extract(req)
	if err != nil {
		t.Fatalf("clean request: %v", err)
	}
	if results, _, err := readResults(resp, 2); err != nil || results[0].UserPrep == nil {
		t.Fatalf("clean request after refused ones: %v (the first author's profile prep must still ship)", err)
	}
}

// FuzzExtractRequest fuzzes the worker's side of the extract wire, the
// last decoder that reads socket bytes: any request either answers one
// result per framed capture or is refused with no response and the
// first-appearance set untouched, and decoding it never allocates more
// than a small multiple of the input.
func FuzzExtractRequest(f *testing.F) {
	batch, _ := matchedBatch(f, 3)
	one, three := appendRequest(nil, batch[:1]), appendRequest(nil, batch)
	pastBody, trailing := damagedRequests(one)
	for _, req := range [][]byte{one, three, three[:2], pastBody, trailing, {}} {
		f.Add(req)
	}
	f.Fuzz(func(t *testing.T, req []byte) {
		w := NewWorkerCore(label.DefaultConfig())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := w.Extract(req)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(req)) {
			t.Fatalf("a %d-byte request allocated %d bytes", len(req), grew)
		}
		if err != nil {
			if resp != nil || len(w.seen) != 0 {
				t.Fatalf("refused request answered %d bytes and marked %d authors seen", len(resp), len(w.seen))
			}
			return
		}
		n := 0
		for rest := req; len(rest) > 0; n++ {
			rest = rest[4+binary.LittleEndian.Uint32(rest):]
		}
		if results, _, err := readResults(resp, n); err != nil || len(results) != n {
			t.Fatalf("a served %d-capture request answered %d results: %v", n, len(results), err)
		}
	})
}

// BenchmarkProcExtract is the number the ledger cannot see (no
// BENCHMARK.json workload runs proc mode): one 64-capture micro-batch
// through frame → in-memory transport → WorkerCore → response decode,
// everything proc mode adds to a batch except the loopback socket.
func BenchmarkProcExtract(b *testing.B) {
	const n = 64
	batch, _ := matchedBatch(b, n)
	mt := newMemTransport(1)
	var req []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req = appendRequest(req[:0], batch)
		resp, err := mt.Extract(context.Background(), 0, req)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := readResults(resp, n); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/capture")
	b.ReportMetric(float64(testing.AllocsPerRun(1, func() {
		resp, _ := mt.Extract(context.Background(), 0, appendRequest(req[:0], batch))
		_, _, _ = readResults(resp, n)
	}))/n, "allocs/capture")
}
