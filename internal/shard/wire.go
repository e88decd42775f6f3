package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	rtm "runtime/metrics"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/codec"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/features"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/store"
)

// Proc-mode extract wire (one HTTP POST per shard micro-batch — DESIGN.md
// §15). Both directions use package codec, the encoding of the WAL and the
// checkpoint. The request is the batch's captures, each a 4-byte
// little-endian length followed by a store.EncodeCapture payload — the
// WAL's capture codec: tweet, frozen sender/receiver snapshots, groups,
// source id, with Seq carrying the fanout's ingest sequence number. The
// response is the result count as a uvarint, then one result per capture
// in request order (appendResult), then the worker's telemetry as three
// uvarints — elapsed ns, heap bytes, GC cycles — which the coordinator
// exports per shard, so nobody scrapes the worker. A response cut short
// fails to decode, so a torn write never passes for a shorter batch.

// result is everything the extract step computes for one capture.
type result struct {
	Vec       features.Vector
	TweetPrep label.TweetPrep
	UserPrep  *label.UserPrep // nil unless the worker saw the author first
}

// minResultBytes is the least a result encodes to: one byte per feature,
// an empty norm, an absent signature and the user-prep flag.
const minResultBytes = features.NumFeatures + 3

// appendResult appends r: its features as compact floats, the tweet prep
// (norm, signature words), and a flag followed, when set, by the user prep
// (name sequence, description norm, description signature words).
func appendResult(b []byte, r *result) []byte {
	for _, f := range r.Vec {
		b = codec.AppendCompactFloat(b, f)
	}
	b = codec.AppendWords(codec.AppendString(b, r.TweetPrep.Norm), r.TweetPrep.Sig)
	b = codec.AppendBool(b, r.UserPrep != nil)
	if up := r.UserPrep; up != nil {
		b = codec.AppendString(b, up.NameSeq)
		b = codec.AppendWords(codec.AppendString(b, up.DescNorm), up.DescSig)
	}
	return b
}

// readResult reads a result written by appendResult into r.
func readResult(d *codec.Decoder, r *result) {
	for f := range r.Vec {
		r.Vec[f] = d.CompactFloat()
	}
	r.TweetPrep = label.TweetPrep{Norm: d.Str(), Sig: d.Words()}
	if d.Bool() {
		r.UserPrep = &label.UserPrep{NameSeq: d.Str(), DescNorm: d.Str(), DescSig: d.Words()}
	}
}

// telemetry is the worker's report closing a response: how long it spent
// on the batch, its live heap, and its completed GC cycles.
type telemetry struct{ ElapsedNS, HeapBytes, GCCycles uint64 }

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
	// runtime is the telemetry's heap and GC sample, read with one
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
// error and yields no partial response (and leaves the first-appearance
// set untouched): the coordinator retries the whole batch.
func (w *WorkerCore) Extract(req []byte) ([]byte, error) {
	start := time.Now()
	var recs []*store.CaptureRecord
	for len(req) > 0 {
		if len(req) < 4 {
			return nil, errors.New("shard: extract request: torn length prefix")
		}
		size := int(binary.LittleEndian.Uint32(req))
		if req = req[4:]; size > len(req) {
			return nil, fmt.Errorf("shard: extract request: capture %d runs past the body", len(recs))
		}
		rec, err := store.DecodeCapture(req[:size])
		if err != nil {
			return nil, fmt.Errorf("shard: extract request: capture %d: %w", len(recs), err)
		}
		req = req[size:]
		recs = append(recs, rec)
	}
	out := codec.AppendUvarint(nil, uint64(len(recs)))
	for _, rec := range recs {
		res := result{
			Vec:       features.Stateless(features.Observation{Tweet: &rec.Tweet, Sender: rec.Sender, Receiver: rec.Receiver}),
			TweetPrep: w.prepper.PrepTweet(&rec.Tweet),
		}
		if rec.Sender != nil {
			if _, ok := w.seen[rec.Sender.ID]; !ok {
				w.seen[rec.Sender.ID] = struct{}{}
				up := w.prepper.PrepUser(rec.Sender)
				res.UserPrep = &up
			}
		}
		out = appendResult(out, &res)
	}
	rtm.Read(w.runtime[:])
	out = codec.AppendUvarint(out, uint64(time.Since(start)))
	out = codec.AppendUvarint(out, sampleUint(w.runtime[0]))
	return codec.AppendUvarint(out, sampleUint(w.runtime[1])), nil
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
// It returns exactly want results and the worker's telemetry, or an error:
// a count that disagrees with the request, a torn result or telemetry, or
// bytes after the telemetry mean the worker died mid-write (or is not the
// worker we think it is) and the batch must be retried.
func readResults(resp []byte, want int) ([]result, telemetry, error) {
	d := codec.NewDecoder(resp)
	n := d.Count(minResultBytes)
	if d.Err() == nil && n != want {
		return nil, telemetry{}, fmt.Errorf("response has %d results, batch has %d", n, want)
	}
	results := make([]result, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		readResult(d, &results[i])
	}
	tel := telemetry{ElapsedNS: d.Uvarint(), HeapBytes: d.Uvarint(), GCCycles: d.Uvarint()}
	if err := d.Finish("extract response"); err != nil {
		return nil, telemetry{}, err
	}
	return results, tel, nil
}
