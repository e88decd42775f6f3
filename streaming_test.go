package pseudohoneypot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// runDetection builds a fresh simulation, attaches a sniffer with cfg, runs
// hours of traffic, and reports the detection result. Each call regenerates
// the world from the same seed, so two calls differing only in pipeline
// mode see the identical tweet stream.
func runDetection(t *testing.T, cfg SnifferConfig, hours int) *DetectionResult {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetricsRegistry()
	}
	sim := testSimulation(t)
	sniffer, err := NewSniffer(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sniffer.Close()
	sim.RunHours(hours)
	res, err := sniffer.DetectAll()
	if err != nil {
		t.Fatal(err)
	}
	// The labeler reports to the sniffer's registry, whatever the topology:
	// one observation per clustering pass for the one DetectAll.
	passes := cfg.Metrics.HistogramVec("ph_label_cluster_seconds", "", nil, "pass")
	for _, pass := range []string{"image", "name", "description", "tweets"} {
		if got := passes.With(pass).Count(); got != 1 {
			t.Fatalf("ph_label_cluster_seconds{pass=%q} has %d observations in the sniffer's registry, want 1", pass, got)
		}
	}
	return res
}

// TestStreamingMatchesBatch checks topologies, not labelers: both label
// through a label.Store. With the same seed, the micro-batched streaming
// run must be identical to the synchronous batch run — result counts,
// every label, and the PGE ranking — at several worker counts and
// micro-batch shapes.
func TestStreamingMatchesBatch(t *testing.T) {
	base := SnifferConfig{Specs: RandomSpec(120), Seed: 1}
	for _, workers := range []string{"1", "2", "8"} {
		t.Run("workers="+workers, func(t *testing.T) {
			t.Setenv(parallel.EnvWorkers, workers)
			want := runDetection(t, base, 6)
			if want.Captures == 0 {
				t.Fatal("batch run captured nothing")
			}
			for _, batch := range []int{1, 16} {
				scfg := base
				scfg.Stream = StreamConfig{
					Enabled:       true,
					BatchSize:     batch,
					FlushInterval: time.Millisecond,
				}
				got := runDetection(t, scfg, 6)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("streaming run (batch=%d) diverged from batch run:\n"+
						"batch:  captures=%d spams=%d spammers=%d checks=%d\n"+
						"stream: captures=%d spams=%d spammers=%d checks=%d",
						batch,
						want.Captures, want.Spams, want.Spammers, want.Labels.ManualChecks,
						got.Captures, got.Spams, got.Spammers, got.Labels.ManualChecks)
				}
			}
		})
	}
}

// fingerprintResult hashes every observable of a detection result: counts,
// each label with its method in key order, manual-check budget spend, and
// the full PGE ranking bit for bit.
func fingerprintResult(res *DetectionResult) string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeFloat := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	writeInt(res.Captures)
	writeInt(res.Spams)
	writeInt(res.Spammers)

	tweetMaps := []map[socialnet.TweetID]LabelMethod{res.Labels.SpamTweets, res.Labels.HamTweets}
	for _, m := range tweetMaps {
		ids := make([]socialnet.TweetID, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			writeInt(int(id))
			writeInt(int(m[id]))
		}
	}
	userMaps := []map[socialnet.AccountID]LabelMethod{res.Labels.Spammers, res.Labels.Benign}
	for _, m := range userMaps {
		ids := make([]socialnet.AccountID, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			writeInt(int(id))
			writeInt(int(m[id]))
		}
	}
	writeInt(res.Labels.ManualChecks)

	for _, row := range res.PGE {
		fmt.Fprintf(h, "%#v", row.Selector)
		writeInt(row.Spammers)
		writeInt(row.Spams)
		writeInt(row.Tweets)
		writeFloat(row.NodeHours)
		writeFloat(row.PGE)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenStreamingFingerprint pins the streaming run at the reference
// configuration (seed 1, 120 random nodes, 6 hours, 16-tweet micro-batches,
// PH_WORKERS=2). TestStreamingMatchesBatch proves streaming == batch within
// a build; this constant pins both across builds — any engine, pipeline,
// labeling, or detector change that shifts results must retake it.
const goldenStreamingFingerprint = "70abfdaa81854edaeb5f286f7df5cbf68e1f7a40dc13234bd56bd56e18c990b6"

// TestStreamingGoldenFingerprint checks the pinned end-to-end fingerprint.
func TestStreamingGoldenFingerprint(t *testing.T) {
	goldenCell(t, goldenStream(nil))
}

// TestStreamingBoundedCaptureStore streams far more captures than the
// configured cap and asserts the retention bound holds, eviction is
// observable, detection still runs on the retained window, and the pipeline
// instrumentation (queue depth, backpressure) is exposed on the registry.
func TestStreamingBoundedCaptureStore(t *testing.T) {
	reg := NewMetricsRegistry()
	sim := testSimulation(t)
	sniffer, err := NewSniffer(sim, SnifferConfig{
		Specs:      RandomSpec(120),
		Seed:       1,
		CaptureCap: 64,
		Metrics:    reg,
		Stream: StreamConfig{
			Enabled:    true,
			BatchSize:  4,
			QueueDepth: 8, // tiny queues so the stream hits backpressure
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sniffer.Close()

	sim.RunHours(8)
	res, err := sniffer.DetectAll()
	if err != nil {
		t.Fatal(err)
	}

	store := sniffer.Monitor().Store()
	if store.Evicted() == 0 {
		t.Fatalf("stream of %d captures never overflowed the cap", store.Len())
	}
	if store.Len() != 64 {
		t.Fatalf("store holds %d captures, want exactly the cap (64)", store.Len())
	}
	if res.Captures != 64 {
		t.Fatalf("detection saw %d captures, want the retained 64", res.Captures)
	}
	// Labels cover the whole stream, not just the retained window.
	if total := len(res.Labels.SpamTweets) + len(res.Labels.HamTweets); total <= 64 {
		t.Fatalf("only %d labeled tweets; the label store should outlive eviction", total)
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, family := range []string{
		"ph_pipeline_queue_depth",
		"ph_pipeline_backpressure_total",
		"ph_pipeline_items_total",
		"ph_capture_store_size 64",
		"ph_capture_store_evicted_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("metrics exposition missing %s", family)
		}
	}
}

// TestStreamingFeedsOnlineDetector checks the detect stage: with an online
// detector configured, every streamed capture lands in its sliding window
// with a provisional label, and the window retrains as it fills.
func TestStreamingFeedsOnlineDetector(t *testing.T) {
	online, err := NewOnlineDetector(ClassifierDT, 400, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim := testSimulation(t)
	sniffer, err := NewSniffer(sim, SnifferConfig{
		Specs:  RandomSpec(120),
		Seed:   1,
		Online: online,
		Stream: StreamConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sniffer.Close()

	sim.RunHours(6)
	if _, err := sniffer.DetectAll(); err != nil {
		t.Fatal(err)
	}
	if online.WindowSize() == 0 {
		t.Fatal("online detector window empty after streaming")
	}
	if online.Retrains() == 0 {
		t.Fatal("online detector never retrained on the stream")
	}
}

// TestStreamingCloseIsIdempotent double-closes a streaming sniffer; the
// second call must be a no-op, not a panic on re-closing queues.
func TestStreamingCloseIsIdempotent(t *testing.T) {
	sim := testSimulation(t)
	sniffer, err := NewSniffer(sim, SnifferConfig{
		Specs:  RandomSpec(20),
		Seed:   1,
		Stream: StreamConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.RunHours(1)
	sniffer.Close()
	sniffer.Close()
}
