package trace

import (
	"io"
	"testing"
)

// BenchmarkSpanDisabled measures the per-capture cost of tracing when the
// tracer is off: one atomic load, no allocations. This is the price every
// OnTweet pays in production when -trace-buffer is 0.
func BenchmarkSpanDisabled(b *testing.B) {
	tr := New(Config{Enabled: false})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := tr.Start("capture")
		sp := t.StartSpan("feature_extract")
		sp.End()
		t.Finish()
	}
}

// BenchmarkSpanEnabled measures the full start→span→finish path with the
// ring buffer engaged.
func BenchmarkSpanEnabled(b *testing.B) {
	tr := New(Config{Enabled: true, Buffer: 256})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := tr.Start("capture")
		sp := t.StartSpan("feature_extract")
		sp.End()
		t.Finish()
	}
}

// BenchmarkLoggerDiscard measures one logfmt event into io.Discard.
func BenchmarkLoggerDiscard(b *testing.B) {
	l := NewLogger(io.Discard, LevelInfo)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Info("slow span", "trace", "t-000001", "stage", "classify", "seconds", 0.25)
	}
}

// BenchmarkLoggerFiltered measures a suppressed event (below level).
func BenchmarkLoggerFiltered(b *testing.B) {
	l := NewLogger(io.Discard, LevelWarn)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Log(LevelDebug, "noise", "i", i)
	}
}
