package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	rtm "runtime/metrics"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/features"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/store"
)

// Proc-mode extract wire (one HTTP POST per shard micro-batch — DESIGN.md
// §15). The request is the batch's captures, each a 4-byte little-endian
// length followed by a store.EncodeCapture payload — the WAL's capture
// codec: tweet, frozen sender/receiver snapshots, groups, source id, with
// Seq carrying the fanout's ingest sequence number. The response is NDJSON:
// one result line per capture, in request order, closed by a trailer
// {"done":N,"elapsed_ns":…,"heap_bytes":…,"gc_cycles":…} whose count lets
// the coordinator detect truncated streams and whose other fields are the
// worker's telemetry: the coordinator exports them per shard, so nobody
// scrapes the worker.

// result is one response line: everything the extract step computes for
// one capture.
type result struct {
	Vec       []float64       `json:"vec"`
	TweetPrep label.TweetPrep `json:"tweet_prep"`
	UserPrep  *label.UserPrep `json:"user_prep,omitempty"`
}

// telemetry is the worker's report in the response trailer: how long it
// spent on the batch, its live heap, and its completed GC cycles. The
// fields are unsigned, so a negative, fractional or out-of-range value
// fails to decode instead of reaching a gauge.
type telemetry struct {
	ElapsedNS uint64 `json:"elapsed_ns"`
	HeapBytes uint64 `json:"heap_bytes"`
	GCCycles  uint64 `json:"gc_cycles"`
}

// trailer closes a response: the result count, then the telemetry.
type trailer struct {
	Done int `json:"done"`
	telemetry
}

// resultLine is the response-line union readResults decodes into.
type resultLine struct {
	result
	Done *int `json:"done"`
	telemetry
}

// appendRequest frames batch onto buf.
func appendRequest(buf []byte, batch []Item) []byte {
	for i := range batch {
		c := batch[i].C
		rec := store.CaptureRecord{
			Seq:      batch[i].Seq,
			Tweet:    *c.Tweet,
			Sender:   c.SenderSnapshot(),
			Receiver: c.ReceiverSnapshot(),
			Groups:   c.Groups,
			Src:      c.Source,
		}
		at := len(buf)
		buf = store.EncodeCapture(append(buf, 0, 0, 0, 0), &rec)
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	return buf
}

// WorkerCore is one proc-mode shard's extract step, independent of its HTTP
// shell so failure-injection tests can drive it in-memory. It does exactly
// what an in-process shard goroutine does — the stateless vector, the tweet
// prep, and the author's profile prep on first appearance — from the frozen
// snapshots in the request. The first-appearance set is shard-local and
// lives as long as the worker; a respawned worker starts with an empty one,
// which only makes it ship redundant profile preps (AddBatchPrepared
// ignores them), never wrong ones.
type WorkerCore struct {
	prepper *label.Prepper
	seen    map[socialnet.AccountID]struct{}
	// runtime is the trailer's heap and GC sample, read with one
	// runtime/metrics.Read per batch — no ReadMemStats stop-the-world.
	runtime [2]rtm.Sample
}

// NewWorkerCore creates the extract step for one shard. lcfg must be the
// coordinator's labeling config (the default config — preps depend only on
// its seed and length bounds).
func NewWorkerCore(lcfg label.Config) *WorkerCore {
	return &WorkerCore{
		prepper: label.NewPrepper(lcfg),
		seen:    make(map[socialnet.AccountID]struct{}),
		runtime: [2]rtm.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/gc/cycles/total:gc-cycles"},
		},
	}
}

// Extract answers one batch request. A request that does not decode is an
// error and yields no partial response: the coordinator retries the whole
// batch.
func (w *WorkerCore) Extract(req []byte) ([]byte, error) {
	start := time.Now()
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	n := 0
	for len(req) > 0 {
		if len(req) < 4 {
			return nil, errors.New("shard: extract request: torn length prefix")
		}
		size := int(binary.LittleEndian.Uint32(req))
		if req = req[4:]; size > len(req) {
			return nil, fmt.Errorf("shard: extract request: capture %d runs past the body", n)
		}
		rec, err := store.DecodeCapture(req[:size])
		if err != nil {
			return nil, fmt.Errorf("shard: extract request: capture %d: %w", n, err)
		}
		req = req[size:]
		vec := features.Stateless(features.Observation{Tweet: &rec.Tweet, Sender: rec.Sender, Receiver: rec.Receiver})
		res := result{Vec: vec[:], TweetPrep: w.prepper.PrepTweet(&rec.Tweet)}
		if rec.Sender != nil {
			if _, ok := w.seen[rec.Sender.ID]; !ok {
				w.seen[rec.Sender.ID] = struct{}{}
				up := w.prepper.PrepUser(rec.Sender)
				res.UserPrep = &up
			}
		}
		if err := enc.Encode(res); err != nil {
			return nil, fmt.Errorf("shard: extract response: %w", err)
		}
		n++
	}
	rtm.Read(w.runtime[:])
	err := enc.Encode(trailer{Done: n, telemetry: telemetry{
		ElapsedNS: uint64(time.Since(start)),
		HeapBytes: sampleUint(w.runtime[0]),
		GCCycles:  sampleUint(w.runtime[1]),
	}})
	return out.Bytes(), err
}

// sampleUint is a runtime/metrics sample's value, 0 when this runtime
// does not support the metric.
func sampleUint(s rtm.Sample) uint64 {
	if s.Value.Kind() != rtm.KindUint64 {
		return 0
	}
	return s.Value.Uint64()
}

// readResults decodes one extract response for a batch of want captures.
// It returns exactly want well-formed results and the trailer's telemetry,
// or an error: a torn line, a missing or malformed trailer, or a count
// that disagrees with the trailer or the request means the worker died
// mid-write (or is not the worker we think it is) and the batch must be
// retried.
func readResults(resp []byte, want int) (results []result, tel telemetry, err error) {
	done := -1
	for len(resp) > 0 {
		if done >= 0 {
			return nil, telemetry{}, errors.New("data after done trailer")
		}
		var raw []byte
		raw, resp, _ = bytes.Cut(resp, []byte("\n"))
		var line resultLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return nil, telemetry{}, fmt.Errorf("response line: %w", err)
		}
		if line.Done != nil {
			if done, tel = *line.Done, line.telemetry; done < 0 {
				return nil, telemetry{}, fmt.Errorf("negative done count %d", done)
			}
			continue
		}
		if len(line.Vec) != features.NumFeatures {
			return nil, telemetry{}, fmt.Errorf("result vector has %d features", len(line.Vec))
		}
		results = append(results, line.result)
	}
	if done < 0 {
		return nil, telemetry{}, errors.New("response truncated (no done trailer)")
	}
	if done != len(results) || done != want {
		return nil, telemetry{}, fmt.Errorf("response truncated (%d results, trailer says %d, batch has %d)", len(results), done, want)
	}
	return results, tel, nil
}
