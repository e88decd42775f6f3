package shard

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/features"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
)

// FuzzExtractResponse fuzzes the one decoder the extract wire adds, the
// coordinator's response reader: any bytes either decode to exactly the
// batch's count of well-formed results plus a trailer of non-negative
// integers, or fail — never a panic, never a short slice the shard would
// index past, never a malformed trailer reaching the worker gauges, which
// are set only from what readResults accepted. (The request side is
// store.DecodeCapture, already under FuzzWALRecord.)
func FuzzExtractResponse(f *testing.F) {
	batch, _ := matchedBatch(f, 2)
	clean, err := NewWorkerCore(label.DefaultConfig()).Extract(appendRequest(nil, batch))
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(bytes.TrimSuffix(clean, []byte("\n")), []byte("\n"))
	results := bytes.Join(lines[:2], nil)
	withTrailer := func(tr string) []byte { return append(bytes.Clone(results), tr+"\n"...) }
	short := `{"vec":[1,2,3],"tweet_prep":{"norm":"x"}}` + "\n"
	f.Add(clean, uint8(2))                                                    // a clean two-capture response
	f.Add(clean[:len(clean)*2/3], uint8(2))                                   // a torn line
	f.Add(bytes.Join(lines[:2], nil), uint8(2))                               // a missing trailer
	f.Add([]byte(short+short+`{"done":2}`+"\n"), uint8(2))                    // a wrong vector length
	f.Add(append(bytes.Join(lines[:2], nil), `{"done":3}`+"\n"...), uint8(2)) // done ≠ line count
	f.Add(append(bytes.Clone(clean), lines[0]...), uint8(2))                  // data after the trailer
	f.Add(clean, uint8(3))                                                    // done ≠ the batch
	f.Add(withTrailer(`{"done":2}`), uint8(2))                                // telemetry missing
	f.Add(withTrailer(`{"done":2,"elapsed_ns":5,"heap_bytes":-1}`), uint8(2)) // a negative field
	f.Add(withTrailer(`{"done":2,"gc_cycles":1e400}`), uint8(2))              // out of range
	f.Add(withTrailer(`{"done":2,"heap_bytes":"4096"}`), uint8(2))            // a string
	f.Add(withTrailer(`{"done":-2}`), uint8(2))                               // a negative count

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
		for i, r := range results {
			if len(r.Vec) != features.NumFeatures {
				t.Fatalf("result %d has %d features", i, len(r.Vec))
			}
		}
	})
}

// TestExtractRequestRejectsGarbage: the worker answers a request it cannot
// decode with an error and no partial response.
func TestExtractRequestRejectsGarbage(t *testing.T) {
	batch, _ := matchedBatch(t, 2)
	req := appendRequest(nil, batch)
	core := NewWorkerCore(label.DefaultConfig())
	for name, bad := range map[string][]byte{
		"torn prefix":  req[:2],
		"torn capture": req[:len(req)-1],
		"bad capture":  append([]byte{3, 0, 0, 0}, "xyz"...),
	} {
		if resp, err := core.Extract(bad); err == nil || resp != nil {
			t.Fatalf("%s: response %q, error %v", name, resp, err)
		}
	}
	if resp, err := core.Extract(req); err != nil || strings.Count(string(resp), "\n") != 3 {
		t.Fatalf("clean request: response %q, error %v", resp, err)
	}
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
