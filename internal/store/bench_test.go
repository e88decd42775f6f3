package store_test

import (
	"fmt"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/store"
)

// benchCaptures prebuilds the records the store benchmarks append, so
// the timed loops pay for encoding and I/O only.
func benchCaptures() []*store.CaptureRecord {
	recs := make([]*store.CaptureRecord, 256)
	for i := range recs {
		recs[i] = testCapture(i)
	}
	return recs
}

// appendBench appends n captures to s, cycling through recs.
func appendBench(b *testing.B, s *store.Store, recs []*store.CaptureRecord, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		rc := *recs[i%len(recs)] // AppendCapture assigns Seq; keep the template reusable
		if err := s.AppendCapture(&rc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppend sweeps the WAL's fsync cadence on a real directory:
// one op is one AppendCapture at the given SyncEvery, final Sync included.
// The whole-run benchmark fixes SyncEvery = 512 (bench/, dense-stream-wal);
// this is where the other group-commit settings stay measurable.
func BenchmarkWALAppend(b *testing.B) {
	recs := benchCaptures()
	for _, syncEvery := range []int{1, 64, 512} {
		b.Run(fmt.Sprintf("sync_every=%d", syncEvery), func(b *testing.B) {
			s, _, err := store.Open(store.Options{Dir: b.TempDir(), SyncEvery: syncEvery, Meta: "bench"})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			appendBench(b, s, recs, b.N)
			if err := s.Sync(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkRecover times Open replaying a 10k-record log with no
// checkpoint to shorten it. Open writes nothing (segments are created on
// first append), so one directory serves every iteration.
func BenchmarkRecover(b *testing.B) {
	const records = 10000
	opts := store.Options{Dir: b.TempDir(), SyncEvery: 512, Meta: "bench"}
	s, _, err := store.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	appendBench(b, s, benchCaptures(), records)
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, rec, err := store.Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(rec.Records) != records {
			b.Fatalf("recovered %d records, want %d", len(rec.Records), records)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}
