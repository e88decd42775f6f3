// Package pipeline is the staged streaming runtime the sniffer runs on
// (DESIGN.md §12): typed bounded queues chained through micro-batching
// stages, with backpressure that propagates upstream to the stream reader
// and drain/close semantics for end-of-run reporting.
//
// A stage is one goroutine consuming its input queue in FIFO order, so a
// chain of stages processes every item in arrival order — the property the
// repo's determinism suite relies on: a streaming run is bit-identical to
// the synchronous batch run under simclock. Micro-batch boundaries
// (FlushSize items or FlushInterval of age, whichever first) only shape
// scheduling and instrumentation, never results; stage handlers are free
// to fan a batch's independent work over the shared worker pool
// (internal/parallel) as long as they apply effects in batch order.
//
// Backpressure: Queue.Push blocks while the queue is full. Because each
// stage pushes into the next stage's queue, a slow stage fills its input
// and the stall propagates back to the producer — for the sniffer, the
// engine's Subscribe callback, which pauses the simulated firehose exactly
// the way a real Streaming API reader stops draining its socket.
package pipeline

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// ErrClosed is returned by Queue.Push after Close.
var ErrClosed = errors.New("pipeline: queue closed")

// Config parameterizes a Runner and the queues created for it.
type Config struct {
	// FlushSize is the micro-batch size bound (default 64).
	FlushSize int
	// FlushInterval bounds how long a partial batch waits for more items
	// after its first item arrived. Zero (or negative) does not wait: it
	// flushes whatever is immediately available. There is no default; a
	// caller that wants a wait passes DefaultFlushInterval.
	FlushInterval time.Duration
	// QueueCap bounds every queue created for the runner
	// (default 4×FlushSize). Push blocks while the queue is full.
	QueueCap int
	// Metrics receives the runtime's instrumentation; nil binds the
	// process-wide metrics.Default() registry.
	Metrics *metrics.Registry
	// Tracer records one trace per non-empty stage flush; nil binds the
	// process-wide trace.Default() tracer (disabled by default).
	Tracer *trace.Tracer
	// Shard is the shard label value stamped on every ph_pipeline_* metric
	// this runner emits ("0" when unset). The sharded sniffer runs one
	// runner per shard plus a "coord" runner, so per-shard imbalance is
	// visible at /metrics.
	Shard string
	// Source is the ingest-source label value stamped on every
	// ph_pipeline_* metric and flush span this runner emits: the sniffer
	// gives every runner its source's id ("mux" for several merged). It
	// has no default; a runner built without one labels its series "".
	Source string
}

// DefaultFlushSize is the default micro-batch size bound.
const DefaultFlushSize = 64

// DefaultFlushInterval is a partial-batch age bound for callers that want
// one (phsniffer's -flush-interval default). Config does not apply it: a
// zero FlushInterval means no wait.
const DefaultFlushInterval = 25 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.FlushSize <= 0 {
		c.FlushSize = DefaultFlushSize
	}
	if c.FlushInterval < 0 {
		c.FlushInterval = 0
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.FlushSize
	}
	if c.Metrics == nil {
		c.Metrics = metrics.Default()
	}
	if c.Tracer == nil {
		c.Tracer = trace.Default()
	}
	if c.Shard == "" {
		c.Shard = "0"
	}
	return c
}

// Runner owns a linear chain of stages. Register stages in topological
// (upstream-first) order with Through/Sink, then Start. Drain waits for
// every enqueued item to finish processing; Close the head queue and Wait
// to shut the chain down.
type Runner struct {
	cfg    Config
	ins    *instruments
	stages []*stageState
	wg     sync.WaitGroup

	// mu guards kick and drains. kick is closed while a Drain is on, so
	// a stage that holds a partial batch flushes it at once instead of
	// waiting out FlushInterval; drains counts the Drains in progress.
	mu     sync.Mutex
	kick   chan struct{}
	drains int
}

// NewRunner creates a runner; queues and stages bind to its config.
func NewRunner(cfg Config) *Runner {
	cfg = cfg.withDefaults()
	return &Runner{cfg: cfg, ins: newInstruments(cfg.Metrics), kick: make(chan struct{})}
}

// draining returns a channel that is closed while a Drain is on.
func (r *Runner) draining() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.kick
}

// Queue is a bounded FIFO of T with blocking push (backpressure) and
// close semantics. A queue has exactly one producer (the upstream stage or
// the external ingest callback) and one consumer (the downstream stage);
// the producer must not Push after Close.
type Queue[T any] struct {
	name string
	ch   chan T
	r    *Runner

	mu     sync.Mutex
	closed bool
	pushed uint64

	// batchBuf is popBatch's reusable output buffer. Safe because a queue
	// has exactly one consumer, and each batch is fully processed before
	// the consumer pops the next one.
	batchBuf []T

	depth        *metrics.Gauge
	backpressure *metrics.Counter
}

// NewQueue creates a bounded queue named after the stage that consumes it,
// sized by the runner's QueueCap. The consuming stage must be r's: a
// partial batch waits out r's FlushInterval unless r is draining.
func NewQueue[T any](r *Runner, name string) *Queue[T] {
	return &Queue[T]{
		name:         name,
		ch:           make(chan T, r.cfg.QueueCap),
		r:            r,
		depth:        r.ins.depth.With(name, r.cfg.Shard, r.cfg.Source),
		backpressure: r.ins.backpressure.With(name, r.cfg.Shard, r.cfg.Source),
	}
}

// Push appends v, blocking while the queue is full (backpressure). It
// returns ErrClosed once the queue has been closed.
func (q *Queue[T]) Push(v T) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrClosed
	}
	q.pushed++
	q.mu.Unlock()
	select {
	case q.ch <- v:
	default:
		// Full: count the stall, then block until the consumer drains.
		q.backpressure.Inc()
		q.ch <- v
	}
	q.depth.Set(float64(len(q.ch)))
	return nil
}

// Close marks the queue complete. The consumer drains the remaining items
// and then observes the end of the stream. Close is idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	close(q.ch)
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.ch) }

// Pushed reports the total number of items ever pushed.
func (q *Queue[T]) Pushed() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pushed
}

// popBatch blocks for the first item (or end of stream), then collects up
// to max items, waiting at most wait after the first item for stragglers,
// and not at all while the queue's runner is draining. It returns
// ok=false only when the queue is closed and fully drained.
// The returned batch reuses the queue's buffer and is valid only until the
// consumer's next popBatch call.
func (q *Queue[T]) popBatch(max int, wait time.Duration) (batch []T, ok bool) {
	v, ok := <-q.ch
	if !ok {
		return nil, false
	}
	if cap(q.batchBuf) < max {
		q.batchBuf = make([]T, 0, max)
	}
	batch = append(q.batchBuf[:0], v)
	defer func() { q.batchBuf = batch }()
	var deadline <-chan time.Time
	var woken <-chan struct{}
	for len(batch) < max {
		select {
		case v, open := <-q.ch:
			if !open {
				q.depth.Set(0)
				return batch, true
			}
			batch = append(batch, v)
		default:
			if wait <= 0 {
				q.depth.Set(float64(len(q.ch)))
				return batch, true
			}
			if deadline == nil {
				deadline = time.After(wait)
				woken = q.r.draining()
			}
			select {
			case v, open := <-q.ch:
				if !open {
					q.depth.Set(0)
					return batch, true
				}
				batch = append(batch, v)
			case <-deadline:
				q.depth.Set(float64(len(q.ch)))
				return batch, true
			case <-woken:
				q.depth.Set(float64(len(q.ch)))
				return batch, true
			}
		}
	}
	q.depth.Set(float64(len(q.ch)))
	return batch, true
}

// stageState tracks one stage's completion for Drain, and holds its
// flush instruments, resolved once when the stage is registered.
type stageState struct {
	span   string // the flush trace's and span's name
	pushed func() uint64

	batches   *metrics.Counter
	items     *metrics.Counter
	flushSecs *metrics.Histogram

	mu        sync.Mutex
	cond      *sync.Cond
	completed uint64

	run func()
}

func (s *stageState) done(n int) {
	s.mu.Lock()
	s.completed += uint64(n)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// drain blocks until the stage has fully processed everything pushed to
// its input queue. The producer must be quiescent, or drain never settles.
func (s *stageState) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.completed != s.pushed() {
		s.cond.Wait()
	}
}

func newStage(r *Runner, name string, pushed func() uint64) *stageState {
	s := &stageState{
		span:      "pipeline_" + name,
		pushed:    pushed,
		batches:   r.ins.batches.With(name, r.cfg.Shard, r.cfg.Source),
		items:     r.ins.items.With(name, r.cfg.Shard, r.cfg.Source),
		flushSecs: r.ins.flushSecs.With(name, r.cfg.Shard, r.cfg.Source),
	}
	s.cond = sync.NewCond(&s.mu)
	r.stages = append(r.stages, s)
	return s
}

// flush wraps one micro-batch of stage s through the runner's
// instrumentation: batch and item counters, flush-latency histogram, and a
// per-flush trace.
func (r *Runner) flush(s *stageState, n int, fn func()) {
	start := time.Now()
	tr := r.cfg.Tracer.Start(s.span)
	sp := tr.StartSpan(s.span)
	fn()
	sp.End()
	if tr != nil {
		tr.SetAttr("batch", strconv.Itoa(n))
		tr.SetAttr("source", r.cfg.Source)
	}
	tr.Finish()
	s.batches.Inc()
	s.items.Add(float64(n))
	s.flushSecs.ObserveDuration(start)
}

// Through registers a stage that consumes in, applies fn per micro-batch,
// and pushes fn's outputs — in order — to out. The stage closes out once
// in is closed and drained, propagating shutdown down the chain. fn must
// apply stateful effects in batch order; it may fan independent work over
// the worker pool.
func Through[In, Out any](r *Runner, name string, in *Queue[In], out *Queue[Out], fn func(batch []In) []Out) {
	s := newStage(r, name, in.Pushed)
	s.run = func() {
		defer out.Close()
		for {
			batch, ok := in.popBatch(r.cfg.FlushSize, r.cfg.FlushInterval)
			if !ok {
				return
			}
			var outs []Out
			r.flush(s, len(batch), func() {
				outs = fn(batch)
			})
			for _, o := range outs {
				// The only producer of out is this stage, so a push
				// can fail only after external shutdown; drop then.
				if err := out.Push(o); err != nil {
					break
				}
			}
			s.done(len(batch))
		}
	}
}

// Sink registers the chain's terminal stage: it consumes in and applies fn
// per micro-batch with nothing downstream.
func Sink[In any](r *Runner, name string, in *Queue[In], fn func(batch []In)) {
	s := newStage(r, name, in.Pushed)
	s.run = func() {
		for {
			batch, ok := in.popBatch(r.cfg.FlushSize, r.cfg.FlushInterval)
			if !ok {
				return
			}
			r.flush(s, len(batch), func() {
				fn(batch)
			})
			s.done(len(batch))
		}
	}
}

// Start launches one goroutine per registered stage.
func (r *Runner) Start() {
	for _, s := range r.stages {
		r.wg.Add(1)
		go func(s *stageState) {
			defer r.wg.Done()
			s.run()
		}(s)
	}
}

// Drain blocks until every item pushed so far has been fully processed by
// every stage, in upstream-to-downstream order. While it runs no stage
// waits for stragglers: a partial batch flushes at once. The caller must
// guarantee the external producer is quiescent for the duration (the
// sniffer drains between RunHours calls); Drain does not close anything,
// so streaming can resume afterwards.
func (r *Runner) Drain() {
	r.mu.Lock()
	if r.drains == 0 {
		close(r.kick)
	}
	r.drains++
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.drains--
		if r.drains == 0 {
			r.kick = make(chan struct{})
		}
		r.mu.Unlock()
	}()
	for _, s := range r.stages {
		s.drain()
	}
}

// Wait blocks until every stage goroutine has exited. Close the head
// queue first; each stage closes its output queue on exit, so the
// shutdown cascades to the sink.
func (r *Runner) Wait() { r.wg.Wait() }
