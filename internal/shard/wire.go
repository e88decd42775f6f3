package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/features"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/store"
)

// Proc-mode extract wire (one HTTP POST per shard micro-batch — DESIGN.md
// §15). The request is the batch's captures, each a 4-byte little-endian
// length followed by a store.EncodeCapture payload — the WAL's capture
// codec: tweet, frozen sender/receiver snapshots, groups, source id, with
// Seq carrying the fanout's ingest sequence number. The response is NDJSON:
// one result line per capture, in request order, closed by a {"done":N}
// trailer whose count lets the coordinator detect truncated streams.

// result is one response line: everything the extract step computes for
// one capture.
type result struct {
	Vec       []float64       `json:"vec"`
	TweetPrep label.TweetPrep `json:"tweet_prep"`
	UserPrep  *label.UserPrep `json:"user_prep,omitempty"`
}

// trailer closes a response: the result count, and how long the worker
// spent on the batch.
type trailer struct {
	Done      int   `json:"done"`
	ElapsedNS int64 `json:"elapsed_ns"`
}

// resultLine is the response-line union readResults decodes into.
type resultLine struct {
	result
	Done      *int  `json:"done"`
	ElapsedNS int64 `json:"elapsed_ns"`
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
	prepper   *label.Prepper
	seen      map[socialnet.AccountID]struct{}
	extracted *metrics.Counter // ph_shard_worker_extracted_total{shard}
}

// NewWorkerCore creates the extract step for one shard. lcfg must be the
// coordinator's labeling config (the default config — preps depend only on
// its seed and length bounds); a nil reg binds metrics.Default().
func NewWorkerCore(shard int, lcfg label.Config, reg *metrics.Registry) *WorkerCore {
	if reg == nil {
		reg = metrics.Default()
	}
	return &WorkerCore{
		prepper: label.NewPrepper(lcfg),
		seen:    make(map[socialnet.AccountID]struct{}),
		extracted: reg.CounterVec("ph_shard_worker_extracted_total",
			"Captures this shard worker process extracted (worker side of ph_shard_batch_captures_total).",
			"shard").With(strconv.Itoa(shard + 1)),
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
	w.extracted.Add(float64(n))
	err := enc.Encode(trailer{Done: n, ElapsedNS: int64(time.Since(start))})
	return out.Bytes(), err
}

// readResults decodes one extract response for a batch of want captures.
// It returns exactly want well-formed results or an error: a torn line, a
// missing trailer, or a count that disagrees with the trailer or the
// request means the worker died mid-write (or is not the worker we think
// it is) and the batch must be retried.
func readResults(resp []byte, want int) (results []result, workerNS int64, err error) {
	done := -1
	for len(resp) > 0 {
		if done >= 0 {
			return nil, 0, errors.New("data after done trailer")
		}
		var raw []byte
		raw, resp, _ = bytes.Cut(resp, []byte("\n"))
		var line resultLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return nil, 0, fmt.Errorf("response line: %w", err)
		}
		if line.Done != nil {
			done, workerNS = *line.Done, line.ElapsedNS
			continue
		}
		if len(line.Vec) != features.NumFeatures {
			return nil, 0, fmt.Errorf("result vector has %d features", len(line.Vec))
		}
		results = append(results, line.result)
	}
	if done < 0 {
		return nil, 0, errors.New("response truncated (no done trailer)")
	}
	if done != len(results) || done != want {
		return nil, 0, fmt.Errorf("response truncated (%d results, trailer says %d, batch has %d)", len(results), done, want)
	}
	return results, workerNS, nil
}
