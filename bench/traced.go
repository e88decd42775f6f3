package main

// This file is the benchmark's only coupling to the program's internal
// packages. A traced run wires the same layer calls api.go makes, with a span
// around each, from these entry points and no others:
//
//	socialnet  NewWorld, NewEngine, Engine.Stats
//	source     NewTwitter: Subscribe, OnHourStart, RunHours, Lookup, ID
//	core       NewMonitor + LocalScreener (behind a Screener wrapper),
//	           Monitor.Rotate/Match/ExtractCapture/Store().Append/Captures/
//	           AttributeSpam/Groups/Extractor/SnapshotGroupStats, ComputePGE,
//	           NewClassifier, NewDetector, Detector.Train/Classify
//	label      DefaultConfig, NewStore, Store.AddBatch/Snapshot, NewNoisyOracle
//	pipeline   NewRunner, NewQueue, Through, Sink, Queue.Push/Close,
//	           Runner.Start/Drain/Wait
//	store      NewDir, Open, Store.AppendCapture/WriteCheckpoint/Close, the
//	           Backend/WriteFile interfaces (to count bytes), and the
//	           checkpointed components' WriteSnapshot
//
// It avoids label.Pipeline.Run and api.go's per-mode attach functions on
// purpose: ROADMAP item 1 removes them. Because the wiring is the
// benchmark's own, every traced run must reproduce its untraced twin's
// fingerprint or the command fails — otherwise it would time another program.

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	ph "github.com/pseudo-honeypot/pseudohoneypot"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/pipeline"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/source"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/store"
)

// manualLabelErrorRate is NewSniffer's default annotator error rate.
const manualLabelErrorRate = 0.01

// tracedScreener times every screening scan of a rotation.
type tracedScreener struct {
	inner core.Screener
	t     *track
}

func (s *tracedScreener) Screen(q socialnet.ScreenQuery, now time.Time) []*socialnet.Account {
	s.t.begin("socialnet.screen")
	defer s.t.end()
	return s.inner.Screen(q, now)
}

// countingBackend counts the bytes the store writes at the backend boundary:
// all WAL segments together, and the latest other file (a checkpoint).
type countingBackend struct {
	store.Backend
	wal, lastOther atomic.Int64
}

type countingFile struct {
	store.WriteFile
	written *atomic.Int64
}

func (b *countingBackend) Create(name string) (store.WriteFile, error) {
	f, err := b.Backend.Create(name)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(name, "wal-") {
		return &countingFile{f, &b.wal}, nil
	}
	b.lastOther.Store(0)
	return &countingFile{f, &b.lastOther}, nil
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.WriteFile.Write(p)
	f.written.Add(int64(n))
	return n, err
}

// labeledCapture mirrors api.go's label→detect queue item.
type labeledCapture struct {
	c    *core.Capture
	spam bool
}

// runTraced is the per-layer run. paper-batch runs the stage closures inline
// on the engine's goroutine; the stream workloads run them on the real
// internal/pipeline graph; the WAL workload adds the store.
func runTraced(spec runSpec, w workload) (*runResult, error) {
	r := &runResult{Workload: w.Name, Traced: true}
	rec := newRecorder(fmt.Sprintf("%s/seed%d", w.Name, spec.Seed))
	main := rec.track()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	main.begin("run")
	main.begin("setup")
	setup := time.Now()
	main.begin("socialnet.world")
	world, err := socialnet.NewWorld(spec.worldConfig())
	main.end()
	if err != nil {
		return nil, err
	}
	engine := socialnet.NewEngine(world)
	src := source.NewTwitter(world, engine)
	m := core.NewMonitor(
		core.MonitorConfig{Specs: spec.specs(w), ActiveOnly: true, Seed: spec.Seed},
		&tracedScreener{
			inner: &core.LocalScreener{World: world, Rng: rand.New(rand.NewSource(spec.Seed + 1))},
			t:     main,
		})
	ls := label.NewStore(label.DefaultConfig())

	var (
		st      *store.Store
		backend *countingBackend
	)
	if w.WAL {
		main.begin("store.open")
		dir, err := store.NewDir(spec.Dir)
		if err == nil {
			backend = &countingBackend{Backend: dir}
			st, _, err = store.Open(store.Options{Backend: backend, SyncEvery: walSyncEvery, Meta: "bench"})
		}
		main.end()
		if err != nil {
			return nil, err
		}
		defer st.Close()
	}

	// The stateful tail of a capture, as api.go's feature and label stages
	// run it. t is the track of whichever goroutine executes the stage.
	var walErr error
	extract := func(t *track, c *core.Capture) {
		t.begin("features.extract")
		m.ExtractCapture(c)
		t.end()
		t.begin("core.store_append")
		m.Store().Append(c)
		t.end()
		if st == nil {
			return
		}
		t.begin("store.wal_append")
		err := st.AppendCapture(&store.CaptureRecord{
			Tweet:    *c.Tweet,
			Sender:   c.SenderSnapshot(),
			Receiver: c.ReceiverSnapshot(),
			Groups:   c.Groups,
			Src:      c.Source,
		})
		t.end()
		if err != nil && walErr == nil {
			walErr = err
		}
	}
	addBatch := func(t *track, batch []*core.Capture) []bool {
		t.begin("label.add_batch")
		defer t.end()
		tweets := make([]*socialnet.Tweet, len(batch))
		authors := make([]*socialnet.Account, len(batch))
		profiles := make([]*socialnet.Account, len(batch))
		for i, c := range batch {
			tweets[i] = c.Tweet
			authors[i] = c.Sender
			profiles[i] = c.SenderSnapshot()
		}
		return ls.AddBatch(tweets, authors, profiles)
	}

	var (
		runner     *pipeline.Runner
		qFeature   *pipeline.Queue[*core.Capture]
		stageItems [3]int // one element per stage goroutine, read after Wait
	)
	if w.Stream {
		runner = pipeline.NewRunner(pipeline.Config{Source: src.ID()})
		qFeature = pipeline.NewQueue[*core.Capture](runner, "feature")
		qLabel := pipeline.NewQueue[*core.Capture](runner, "label")
		qDetect := pipeline.NewQueue[labeledCapture](runner, "detect")
		tf, tl, td := rec.track(), rec.track(), rec.track()
		pipeline.Through(runner, "feature", qFeature, qLabel, func(batch []*core.Capture) []*core.Capture {
			tf.begin("pipeline.feature")
			defer tf.end()
			stageItems[0] += len(batch)
			for _, c := range batch {
				extract(tf, c)
			}
			return batch
		})
		pipeline.Through(runner, "label", qLabel, qDetect, func(batch []*core.Capture) []labeledCapture {
			tl.begin("pipeline.label")
			defer tl.end()
			stageItems[1] += len(batch)
			provisional := addBatch(tl, batch)
			out := make([]labeledCapture, len(batch))
			for i, c := range batch {
				out[i] = labeledCapture{c: c, spam: provisional[i]}
			}
			return out
		})
		// No online detector is configured, so the sink only drains.
		pipeline.Sink(runner, "detect", qDetect, func(batch []labeledCapture) {
			td.begin("pipeline.detect")
			stageItems[2] += len(batch)
			td.end()
		})
		runner.Start()
		// Stops the stage goroutines on the error paths; the close phase
		// below has already done both otherwise.
		defer func() {
			qFeature.Close()
			runner.Wait()
		}()
	}
	drain := func() {
		if runner == nil {
			return
		}
		main.begin("pipeline.drain")
		runner.Drain()
		main.end()
	}

	var lastCaptured socialnet.TweetID
	var ckptErr error
	src.OnHourStart(func(hour int, now time.Time) {
		main.begin("core.rotate")
		m.Rotate(now, time.Hour)
		main.end()
		if st == nil || hour == 0 || hour%walCheckpointEvery != 0 {
			return
		}
		drain()
		main.begin("store.checkpoint_encode")
		ck := &store.Checkpoint{TweetWatermark: int64(lastCaptured), Components: make(map[string][]byte, 4)}
		var buf bytes.Buffer
		snap := func(key string, write func(*bytes.Buffer) error) error {
			buf.Reset()
			if err := write(&buf); err != nil {
				return err
			}
			ck.Components[key] = append([]byte(nil), buf.Bytes()...)
			return nil
		}
		err := errors.Join(
			snap("captures", func(b *bytes.Buffer) error { return m.Store().WriteSnapshot(b) }),
			snap("labels", func(b *bytes.Buffer) error { return ls.WriteSnapshot(b) }),
			snap("extractor", func(b *bytes.Buffer) error { return m.Extractor().WriteSnapshot(b) }),
			snap("groups", func(b *bytes.Buffer) error { return gob.NewEncoder(b).Encode(m.SnapshotGroupStats()) }),
		)
		main.end()
		if err == nil {
			main.begin("store.checkpoint_write")
			err = st.WriteCheckpoint(ck)
			main.end()
		}
		if err != nil && ckptErr == nil {
			ckptErr = err
		}
	})
	cancel := src.Subscribe(func(p source.Post) {
		r.Tweets++
		main.begin("core.match")
		c := m.Match(p.Tweet, src.Lookup)
		main.end()
		if c == nil {
			return
		}
		c.Source = p.Origin
		lastCaptured = p.Tweet.ID
		if qFeature == nil {
			extract(main, c)
			addBatch(main, []*core.Capture{c})
			return
		}
		// Blocking push is the backpressure contract: the span is the time
		// the firehose waited for a downstream stage.
		main.begin("pipeline.push")
		_ = qFeature.Push(c)
		main.end()
	})
	r.SetupS = time.Since(setup).Seconds()
	main.end() // setup

	main.begin("collect")
	collect := time.Now()
	r.HourS = make([]float64, spec.Hours)
	for h := range r.HourS {
		hour := time.Now()
		main.begin("socialnet.engine")
		err := src.RunHours(1)
		main.end()
		if err != nil {
			return nil, fmt.Errorf("hour %d: %w", h, err)
		}
		r.HourS[h] = time.Since(hour).Seconds()
	}
	r.CollectS = time.Since(collect).Seconds()
	main.end() // collect

	main.begin("detect")
	detect := time.Now()
	drain()
	main.begin("core.capture_list")
	captures := m.Captures()
	main.end()
	if len(captures) == 0 {
		return nil, errors.New("nothing captured")
	}
	main.begin("label.snapshot")
	labels := ls.Snapshot(label.NewNoisyOracle(world, manualLabelErrorRate, spec.Seed+2))
	main.end()
	clf, err := core.NewClassifier(core.ClassifierRF, spec.Seed)
	if err != nil {
		return nil, err
	}
	det := core.NewDetector(clf)
	main.begin("ml.train")
	err = det.Train(captures, labels)
	main.end()
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	main.begin("ml.classify")
	verdicts := det.Classify(captures)
	main.end()
	main.begin("core.attribute")
	m.AttributeSpam(verdicts)
	res := &ph.DetectionResult{Captures: len(captures), Labels: labels, PGE: core.ComputePGE(m.Groups())}
	main.end()
	spammers := make(map[socialnet.AccountID]struct{})
	for i, v := range verdicts {
		if v {
			res.Spams++
			spammers[captures[i].Tweet.AuthorID] = struct{}{}
		}
	}
	res.Spammers = len(spammers)
	r.DetectS = time.Since(detect).Seconds()
	main.end() // detect

	main.begin("close")
	closing := time.Now()
	cancel()
	if runner != nil {
		main.begin("pipeline.close")
		qFeature.Close()
		runner.Wait()
		main.end()
	}
	if st != nil {
		main.begin("store.close")
		err = st.Close()
		main.end()
		if err != nil {
			return nil, fmt.Errorf("close store: %w", err)
		}
	}
	r.CloseS = time.Since(closing).Seconds()
	main.end() // close
	main.end() // run

	if err := errors.Join(walErr, ckptErr); err != nil {
		return nil, fmt.Errorf("durable store: %w", err)
	}
	after, err := r.resources(&before)
	if err != nil {
		return nil, err
	}
	r.score(res, captures)

	sum, err := summarize(rec.spans)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	r.Layers = layerMetrics(sum, len(rec.spans))
	if flushes := r.Layers["pipeline.flushes"]; flushes > 0 {
		r.Layers["pipeline.mean_batch"] = float64(stageItems[0]+stageItems[1]+stageItems[2]) / flushes
	}
	r.Layers["socialnet.tweets"] = float64(engine.Stats().TweetsTotal)
	r.Layers["core.captures"] = float64(len(captures))
	r.Layers["core.capture_ratio"] = float64(len(captures)) / float64(r.Tweets)
	r.Layers["label.spam_labels"] = float64(len(labels.SpamTweets))
	r.Layers["label.manual_checks"] = float64(labels.ManualChecks)
	r.Layers["ml.train_rows"] = float64(len(captures))
	r.Layers["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	r.Layers["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	r.Layers["runtime.total_alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	if backend != nil {
		r.Layers["store.wal_mb"] = float64(backend.wal.Load()) / (1 << 20)
		r.Layers["store.checkpoint_last_mb"] = float64(backend.lastOther.Load()) / (1 << 20)
		disk, err := dirSizeMB(spec.Dir)
		if err != nil {
			return nil, err
		}
		r.Layers["store.disk_mb"] = disk
	}
	if spec.TraceOut != "" {
		if err := writeTrace(spec, rec.spans); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func dirSizeMB(dir string) (float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return float64(total) / (1 << 20), nil
}

// writeTrace writes the run's spans, stamped with what produced them.
func writeTrace(spec runSpec, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(spec.TraceOut), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Env   envStamp `json:"env"`
		Spec  runSpec  `json:"spec"`
		Spans []span   `json:"spans"`
	}{stampEnv(), spec, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(spec.TraceOut, data, 0o644)
}
