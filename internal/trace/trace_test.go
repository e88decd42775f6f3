package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/simclock"
)

// simTracer builds an enabled tracer on a simulated clock whose hands we
// control explicitly, so every duration in these tests is exact.
func simTracer(cfg Config) (*Tracer, *simclock.Simulated) {
	clk := simclock.NewSimulated(time.Time{})
	cfg.Enabled = true
	cfg.Clock = clk.Now
	return New(cfg), clk
}

func TestTraceLifecycle(t *testing.T) {
	tr, clk := simTracer(Config{})
	a := tr.Start("capture")
	if a == nil {
		t.Fatal("enabled tracer returned nil trace")
	}
	if a.ID() != "t-000001" || a.Name() != "capture" {
		t.Fatalf("id=%q name=%q", a.ID(), a.Name())
	}
	a.SetAttr("tweet", "42")
	a.SetAttr("tweet", "43") // overwrite, not append

	sp := a.StartSpan("feature_extract")
	clk.Advance(5 * time.Millisecond)
	sp.SetAttr("features", "58")
	sp.End()
	sp.End() // idempotent
	clk.Advance(time.Millisecond)
	a.Finish()
	a.Finish() // idempotent

	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("ring has %d traces, want 1", len(recent))
	}
	got := recent[0]
	if !got.Finished || got.DurationNS != (6*time.Millisecond).Nanoseconds() {
		t.Fatalf("trace snapshot %+v", got)
	}
	if len(got.Attrs) != 1 || got.Attrs[0] != (KV{"tweet", "43"}) {
		t.Fatalf("attrs %+v", got.Attrs)
	}
	span, ok := got.Span("feature_extract")
	if !ok || span.DurationNS != (5*time.Millisecond).Nanoseconds() {
		t.Fatalf("span %+v ok=%v", span, ok)
	}
	if len(span.Attrs) != 1 || span.Attrs[0] != (KV{"features", "58"}) {
		t.Fatalf("span attrs %+v", span.Attrs)
	}
	if span.End() != span.Start.Add(5*time.Millisecond) {
		t.Fatalf("span end %v", span.End())
	}

	if _, ok := tr.Get("t-000001"); !ok {
		t.Fatal("Get missed retained trace")
	}
	if _, ok := tr.Get("t-999999"); ok {
		t.Fatal("Get found unknown trace")
	}
}

func TestRingEviction(t *testing.T) {
	tr, _ := simTracer(Config{Buffer: 3})
	for i := 0; i < 5; i++ {
		tr.Start("w").Finish()
	}
	recent := tr.Recent()
	if len(recent) != 3 {
		t.Fatalf("ring kept %d, want 3", len(recent))
	}
	want := []string{"t-000003", "t-000004", "t-000005"}
	for i, w := range want {
		if recent[i].ID != w {
			t.Fatalf("ring[%d] = %s, want %s (oldest first)", i, recent[i].ID, w)
		}
	}
}

func TestDisabledAndNilTracerAreNoops(t *testing.T) {
	var nilTracer *Tracer
	disabled := New(Config{}) // Enabled: false
	for name, tracer := range map[string]*Tracer{"nil": nilTracer, "disabled": disabled} {
		if tracer.Enabled() {
			t.Fatalf("%s tracer reports enabled", name)
		}
		trc := tracer.Start("x")
		if trc != nil {
			t.Fatalf("%s tracer started a real trace", name)
		}
		// The whole chain must be callable on nil values.
		trc.SetAttr("k", "v")
		sp := trc.StartSpan("y")
		sp.SetAttr("k", "v")
		sp.End()
		trc.AddSpan("z", time.Time{}, time.Time{})
		trc.Finish()
		if trc.ID() != "" || trc.Name() != "" {
			t.Fatalf("%s trace has identity", name)
		}
		if got := trc.Snapshot(); len(got.Spans) != 0 {
			t.Fatalf("%s snapshot %+v", name, got)
		}
		if got := tracer.Recent(); len(got) != 0 {
			t.Fatalf("%s ring %+v", name, got)
		}
		if s := tracer.Summary(3); s.Traces != 0 || len(s.Stages) != 0 {
			t.Fatalf("%s summary %+v", name, s)
		}
	}
}

func TestDisabledTracerZeroAlloc(t *testing.T) {
	disabled := New(Config{})
	for name, tracer := range map[string]*Tracer{"nil": nil, "disabled": disabled} {
		allocs := testing.AllocsPerRun(100, func() {
			tr := tracer.Start("capture")
			sp := tr.StartSpan("feature_extract")
			sp.End()
			tr.Finish()
		})
		if allocs != 0 {
			t.Fatalf("%s tracer hot path allocates %.1f/op, want 0", name, allocs)
		}
	}
}

func TestObserverReceivesEverySpan(t *testing.T) {
	var mu sync.Mutex
	sums := make(map[string]float64)
	counts := make(map[string]int)
	tr, clk := simTracer(Config{Observer: func(stage string, secs float64) {
		mu.Lock()
		sums[stage] += secs
		counts[stage]++
		mu.Unlock()
	}})

	a := tr.Start("capture")
	sp := a.StartSpan("classify")
	clk.Advance(10 * time.Millisecond)
	sp.End()
	start := clk.Now()
	clk.Advance(30 * time.Millisecond)
	a.AddSpan("label_rules", start, clk.Now())
	a.Finish()

	if counts["classify"] != 1 || counts["label_rules"] != 1 {
		t.Fatalf("observer counts %+v", counts)
	}
	if sums["classify"] != 0.010 || sums["label_rules"] != 0.030 {
		t.Fatalf("observer sums %+v", sums)
	}
}

func TestSlowSpanEmitsEvent(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, LevelWarn)
	tr, clk := simTracer(Config{SlowSpan: 50 * time.Millisecond, Logger: logger})
	logger.clock = clk.Now

	a := tr.Start("capture")
	fast := a.StartSpan("fast_stage")
	clk.Advance(10 * time.Millisecond)
	fast.End()
	slow := a.StartSpan("slow_stage")
	clk.Advance(80 * time.Millisecond)
	slow.End()
	a.Finish()

	out := buf.String()
	if strings.Contains(out, "fast_stage") {
		t.Fatalf("fast span logged: %s", out)
	}
	if !strings.Contains(out, "slow span") || !strings.Contains(out, "stage=slow_stage") ||
		!strings.Contains(out, "trace=t-000001") {
		t.Fatalf("slow span event missing fields: %s", out)
	}
}

func TestAddSpanExtendsFinishedTrace(t *testing.T) {
	tr, clk := simTracer(Config{})
	a := tr.Start("capture")
	clk.Advance(time.Millisecond)
	a.Finish()

	start := clk.Now()
	clk.Advance(7 * time.Millisecond)
	a.AddSpan("label_manual", start, clk.Now(), KV{"batch", "t-000002"})
	a.AddSpan("bogus", clk.Now(), clk.Now().Add(-time.Hour)) // end < start clamps

	got := tr.Recent()[0]
	if got.DurationNS != (8 * time.Millisecond).Nanoseconds() {
		t.Fatalf("late span did not extend trace: %+v", got)
	}
	span, ok := got.Span("label_manual")
	if !ok || span.DurationNS != (7*time.Millisecond).Nanoseconds() {
		t.Fatalf("adopted span %+v", span)
	}
	if len(span.Attrs) != 1 || span.Attrs[0] != (KV{"batch", "t-000002"}) {
		t.Fatalf("adopted span attrs %+v", span.Attrs)
	}
	if bogus, _ := got.Span("bogus"); bogus.DurationNS != 0 {
		t.Fatalf("negative span not clamped: %+v", bogus)
	}
}

func TestOpenSpanSnapshotsAsZeroDuration(t *testing.T) {
	tr, clk := simTracer(Config{})
	a := tr.Start("capture")
	a.StartSpan("never_ended")
	clk.Advance(time.Second)
	a.Finish()
	span, ok := tr.Recent()[0].Span("never_ended")
	if !ok || span.DurationNS != 0 {
		t.Fatalf("open span %+v", span)
	}
}

func TestSnapshotOrdersConcurrentSpans(t *testing.T) {
	// Spans appended from concurrent goroutines at the same virtual
	// instant must snapshot in a deterministic order.
	for round := 0; round < 10; round++ {
		tr, _ := simTracer(Config{})
		a := tr.Start("batch")
		stages := []string{"delta", "alpha", "charlie", "bravo"}
		var wg sync.WaitGroup
		for _, st := range stages {
			wg.Add(1)
			go func(st string) {
				defer wg.Done()
				a.StartSpan(st).End()
			}(st)
		}
		wg.Wait()
		a.Finish()
		got := tr.Recent()[0]
		for i, want := range []string{"alpha", "bravo", "charlie", "delta"} {
			if got.Spans[i].Stage != want {
				t.Fatalf("round %d span order %+v", round, got.Spans)
			}
		}
	}
}

func TestSetActiveRestores(t *testing.T) {
	tr, _ := simTracer(Config{})
	outer := tr.Start("outer")
	inner := tr.Start("inner")
	if Active() != nil {
		t.Fatal("active trace leaked from a previous test")
	}
	restoreOuter := SetActive(outer)
	if Active() != outer {
		t.Fatal("outer not active")
	}
	restoreInner := SetActive(inner)
	if Active() != inner {
		t.Fatal("inner not active")
	}
	restoreInner()
	if Active() != outer {
		t.Fatal("restore did not reinstate outer")
	}
	restoreOuter()
	if Active() != nil {
		t.Fatal("restore did not clear active")
	}
}

func TestConfigureResetsRing(t *testing.T) {
	tr, clk := simTracer(Config{Buffer: 8})
	tr.Start("x").Finish()
	tr.Configure(Config{Enabled: true, Buffer: 2, Clock: clk.Now})
	if got := tr.Recent(); len(got) != 0 {
		t.Fatalf("ring survived reconfigure: %+v", got)
	}
	tr.Configure(Config{Enabled: false})
	if tr.Enabled() || tr.Start("y") != nil {
		t.Fatal("reconfigure did not disable tracer")
	}
}

func TestSummaryStats(t *testing.T) {
	tr, clk := simTracer(Config{})
	durations := []time.Duration{ // classify spans: 1..20ms
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
	}
	for _, d := range durations {
		a := tr.Start("capture")
		sp := a.StartSpan("classify")
		clk.Advance(d * time.Millisecond)
		sp.End()
		a.Finish()
	}
	s := tr.Summary(3)
	if s.Traces != 20 || s.Spans != 20 || len(s.Stages) != 1 {
		t.Fatalf("summary %+v", s)
	}
	st := s.Stages[0]
	if st.Stage != "classify" || st.Count != 20 {
		t.Fatalf("stage %+v", st)
	}
	if st.P50Seconds != 0.010 || st.P95Seconds != 0.019 || st.MaxSeconds != 0.020 {
		t.Fatalf("percentiles %+v", st)
	}
	wantSum := 0.0
	for _, d := range durations {
		wantSum += (d * time.Millisecond).Seconds()
	}
	if diff := st.SumSeconds - wantSum; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("sum %v want %v", st.SumSeconds, wantSum)
	}
	if len(s.Slowest) != 3 || s.Slowest[0].ID != "t-000020" ||
		s.Slowest[0].DurationSeconds != 0.020 {
		t.Fatalf("slowest %+v", s.Slowest)
	}
}

func TestConcurrentTracerUse(t *testing.T) {
	tr, _ := simTracer(Config{Buffer: 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a := tr.Start("capture")
				sp := a.StartSpan("stage")
				sp.End()
				a.SetAttr("i", "1")
				a.Finish()
				tr.Recent()
				tr.Summary(2)
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Recent()); got != 16 {
		t.Fatalf("ring size %d", got)
	}
}
