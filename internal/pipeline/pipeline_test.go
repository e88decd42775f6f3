package pipeline

import (
	"sync"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
)

// chain builds a two-stage int chain (double → collect) on a private
// registry and returns the head queue, the runner, and the collected
// output guarded by mu.
func chain(t *testing.T, cfg Config) (*Queue[int], *Runner, *sync.Mutex, *[]int) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	r := NewRunner(cfg)
	qIn := NewQueue[int](r, "double")
	qOut := NewQueue[int](r, "collect")
	Through(r, "double", qIn, qOut, func(batch []int) []int {
		out := make([]int, len(batch))
		for i, v := range batch {
			out[i] = 2 * v
		}
		return out
	})
	var mu sync.Mutex
	got := &[]int{}
	Sink(r, "collect", qOut, func(batch []int) {
		mu.Lock()
		*got = append(*got, batch...)
		mu.Unlock()
	})
	r.Start()
	return qIn, r, &mu, got
}

// TestChainFIFOOrder pushes a monotone stream through a two-stage chain
// and requires the sink to observe every item, doubled, in push order —
// micro-batch boundaries must never reorder.
func TestChainFIFOOrder(t *testing.T) {
	qIn, r, mu, got := chain(t, Config{FlushSize: 7, FlushInterval: time.Millisecond})
	const n = 1000
	for i := 0; i < n; i++ {
		if err := qIn.Push(i); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	qIn.Close()
	r.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(*got) != n {
		t.Fatalf("sink saw %d items, want %d", len(*got), n)
	}
	for i, v := range *got {
		if v != 2*i {
			t.Fatalf("item %d = %d, want %d (reordered)", i, v, 2*i)
		}
	}
}

// TestPushAfterCloseErrors verifies the close contract: Push returns
// ErrClosed, never panics, once the queue is closed.
func TestPushAfterCloseErrors(t *testing.T) {
	r := NewRunner(Config{Metrics: metrics.NewRegistry()})
	q := NewQueue[int](r, "head")
	q.Close()
	q.Close() // idempotent
	if err := q.Push(1); err != ErrClosed {
		t.Fatalf("push after close: %v, want ErrClosed", err)
	}
}

// TestBackpressureBlocksProducer fills a capacity-2 queue with no consumer
// running, verifies the third push blocks, then confirms it completes once
// a consumer drains — and that the stall is counted on the backpressure
// metric.
func TestBackpressureBlocksProducer(t *testing.T) {
	reg := metrics.NewRegistry()
	r := NewRunner(Config{QueueCap: 2, Metrics: reg})
	q := NewQueue[int](r, "slow")
	if err := q.Push(1); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(2); err != nil {
		t.Fatal(err)
	}
	unblocked := make(chan struct{})
	go func() {
		q.Push(3) // must block: queue is full
		close(unblocked)
	}()
	select {
	case <-unblocked:
		t.Fatal("push into a full queue returned without a consumer")
	case <-time.After(50 * time.Millisecond):
	}
	if got, ok := q.popBatch(3, 0); !ok || len(got) == 0 {
		t.Fatalf("popBatch = %v, %v", got, ok)
	}
	select {
	case <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("push did not unblock after the consumer drained")
	}
	bp := metricValue(t, reg, "ph_pipeline_backpressure_total", "slow")
	if bp < 1 {
		t.Fatalf("backpressure counter = %v, want >= 1", bp)
	}
}

// TestFlushBySize verifies a full micro-batch flushes at FlushSize without
// waiting out the interval.
func TestFlushBySize(t *testing.T) {
	reg := metrics.NewRegistry()
	r := NewRunner(Config{FlushSize: 4, FlushInterval: time.Hour, Metrics: reg})
	q := NewQueue[int](r, "sized")
	sizes := make(chan int, 8)
	Sink(r, "sized", q, func(batch []int) { sizes <- len(batch) })
	r.Start()
	for i := 0; i < 8; i++ {
		if err := q.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	for seen := 0; seen < 8; {
		select {
		case n := <-sizes:
			if n > 4 {
				t.Fatalf("batch of %d exceeds FlushSize 4", n)
			}
			seen += n
		case <-time.After(5 * time.Second):
			t.Fatalf("stage stalled with FlushInterval=1h despite full batches")
		}
	}
	q.Close()
	r.Wait()
}

// TestFlushByInterval verifies a partial batch flushes once FlushInterval
// elapses even though more items never arrive.
func TestFlushByInterval(t *testing.T) {
	r := NewRunner(Config{FlushSize: 1024, FlushInterval: 20 * time.Millisecond,
		Metrics: metrics.NewRegistry()})
	q := NewQueue[int](r, "interval")
	flushed := make(chan []int, 1)
	Sink(r, "interval", q, func(batch []int) {
		flushed <- append([]int(nil), batch...)
	})
	r.Start()
	if err := q.Push(42); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-flushed:
		if len(b) != 1 || b[0] != 42 {
			t.Fatalf("flushed %v, want [42]", b)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("partial batch never flushed on interval")
	}
	q.Close()
	r.Wait()
}

// TestDrainFlushesPartialBatches: at an hour's flush interval every stage
// would hold its partial batch for an hour, so a Drain that returns shows
// it flushed them at once. Two Drains run at a time the second time, and
// a partial batch between them waits for its interval again.
func TestDrainFlushesPartialBatches(t *testing.T) {
	qIn, r, mu, got := chain(t, Config{FlushSize: 64, FlushInterval: time.Hour})
	drain := func(n, drains int) {
		t.Helper()
		done := make(chan struct{}, drains)
		for i := 0; i < drains; i++ {
			go func() {
				r.Drain()
				done <- struct{}{}
			}()
		}
		timeout := time.After(10 * time.Second)
		for i := 0; i < drains; i++ {
			select {
			case <-done:
			case <-timeout:
				t.Fatalf("Drain waited on a partial batch's flush interval")
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if len(*got) != n {
			t.Fatalf("sink saw %d items after Drain, want %d", len(*got), n)
		}
	}
	for i := 0; i < 3; i++ {
		if err := qIn.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	drain(3, 1)
	if err := qIn.Push(3); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	early := len(*got)
	mu.Unlock()
	if early != 3 {
		t.Fatalf("a partial batch flushed before its interval with no drain on: sink saw %d items", early)
	}
	drain(4, 2)
	qIn.Close()
	r.Wait()
}

// TestDrainWaitsForInFlight pushes through a deliberately slow stage and
// checks Drain does not return until the sink has seen every item.
func TestDrainWaitsForInFlight(t *testing.T) {
	reg := metrics.NewRegistry()
	r := NewRunner(Config{FlushSize: 8, FlushInterval: time.Millisecond, Metrics: reg})
	qIn := NewQueue[int](r, "slow")
	qOut := NewQueue[int](r, "count")
	Through(r, "slow", qIn, qOut, func(batch []int) []int {
		time.Sleep(time.Millisecond)
		return batch
	})
	var mu sync.Mutex
	seen := 0
	Sink(r, "count", qOut, func(batch []int) {
		mu.Lock()
		seen += len(batch)
		mu.Unlock()
	})
	r.Start()
	const n = 200
	for i := 0; i < n; i++ {
		if err := qIn.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	r.Drain()
	mu.Lock()
	got := seen
	mu.Unlock()
	if got != n {
		t.Fatalf("Drain returned with %d/%d items at the sink", got, n)
	}
	// Drain leaves the chain live: more work must still flow.
	if err := qIn.Push(99); err != nil {
		t.Fatal(err)
	}
	r.Drain()
	mu.Lock()
	got = seen
	mu.Unlock()
	if got != n+1 {
		t.Fatalf("post-drain push not processed: %d", got)
	}
	qIn.Close()
	r.Wait()
}

// TestCloseCascades closes the head queue and requires Wait to return with
// every stage having flushed its residue downstream.
func TestCloseCascades(t *testing.T) {
	qIn, r, mu, got := chain(t, Config{FlushSize: 64, FlushInterval: time.Hour})
	for i := 0; i < 10; i++ {
		if err := qIn.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	qIn.Close()
	done := make(chan struct{})
	go func() { r.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait hung after head close")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(*got) != 10 {
		t.Fatalf("close lost items: sink saw %d/10", len(*got))
	}
}

// TestQueueMetrics verifies the per-stage instrumentation families show up
// with sane values after a run.
func TestQueueMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	qIn, r, _, _ := chain(t, Config{FlushSize: 4, FlushInterval: time.Millisecond, Metrics: reg})
	for i := 0; i < 40; i++ {
		if err := qIn.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	qIn.Close()
	r.Wait()
	if v := metricValue(t, reg, "ph_pipeline_items_total", "double"); v != 40 {
		t.Fatalf("ph_pipeline_items_total{stage=double} = %v, want 40", v)
	}
	if v := metricValue(t, reg, "ph_pipeline_items_total", "collect"); v != 40 {
		t.Fatalf("ph_pipeline_items_total{stage=collect} = %v, want 40", v)
	}
	if v := metricValue(t, reg, "ph_pipeline_batches_total", "double"); v < 10 {
		t.Fatalf("ph_pipeline_batches_total{stage=double} = %v, want >= 10", v)
	}
	// Depth gauges exist and have settled at zero.
	if v := metricValue(t, reg, "ph_pipeline_queue_depth", "double"); v != 0 {
		t.Fatalf("queue depth after drain = %v, want 0", v)
	}
}

// metricValue reads one labeled sample value from a registry snapshot.
func metricValue(t *testing.T, reg *metrics.Registry, family, stage string) float64 {
	t.Helper()
	for _, fam := range reg.Snapshot() {
		if fam.Name != family {
			continue
		}
		for _, s := range fam.Samples {
			for _, l := range s.Labels {
				if l.Name == "stage" && l.Value == stage {
					return s.Value
				}
			}
		}
	}
	t.Fatalf("no sample %s{stage=%q}", family, stage)
	return 0
}
