package pseudohoneypot

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/store"
)

// StoreBackend is the pluggable storage interface behind the durable
// capture store: local disk in the daemons, an injected fault-filesystem
// double in the crash tests, blob storage in a future deployment.
type StoreBackend = store.Backend

// NewDirBackend opens (creating if needed) a local-disk store backend
// rooted at dir.
func NewDirBackend(dir string) (StoreBackend, error) { return store.NewDir(dir) }

// DurabilityConfig enables the durable capture store (DESIGN.md §14): a
// write-ahead log of every capture plus checkpoints of the derived
// pipeline state (capture ring, label-store cluster indices, extractor
// behaviour state, group statistics, online-detector window). A checkpoint
// compacts the log: one is cut at an hour boundary once the WAL tail past
// the newest checkpoint holds at least as many records as that checkpoint
// covers (or after a failed WAL append), so checkpoint sizes grow
// geometrically and recovery replays at most the covered history plus one
// hour. On restart the sniffer restores the latest checkpoint, replays the
// WAL tail through the same extraction/labeling code the stream runs, and
// skips already-durable tweets as the simulation re-runs — converging on
// the state an uninterrupted run would have reached.
type DurabilityConfig struct {
	// Dir roots a local-disk store; empty (with a nil Backend) disables
	// durability.
	Dir string
	// Backend overrides Dir with a custom store backend. The
	// fault-injection tests inject their filesystem double here.
	Backend StoreBackend
	// SyncEvery groups WAL appends per fsync (group commit). 0 or 1
	// syncs every append — the strongest setting; larger values trade
	// the unsynced tail on crash for throughput.
	SyncEvery int
	// Deprecated: CheckpointEvery is ignored. Checkpoints follow the
	// WAL tail's length instead of a fixed cadence (see above).
	CheckpointEvery int
	// RecordRotations additionally journals every node-set rotation's
	// per-group counts and, at Close, an epilogue of the final profiles
	// of every captured account — everything a ReplaySource needs to
	// re-feed the WAL through the full pipeline and reproduce the run's
	// detection result. A recording run retains its full WAL: compaction
	// pruning is suspended (store.Options.RetainAll), because a pruned
	// prefix would silently truncate the replay.
	RecordRotations bool
}

func (d DurabilityConfig) enabled() bool { return d.Dir != "" || d.Backend != nil }

// section is one component of the durable checkpoint: the name the file
// holds its bytes under, how a cut encodes them, and how recovery restores
// the component from the bytes it arrived in.
type section struct {
	name    string
	encode  func() ([]byte, error)
	restore func([]byte) error
}

// sections is the checkpoint's one table of components, walked by both
// checkpointDurable and recoverDurable. Recovery restores them in this
// order: the group statistics re-base the monitor's capture counter from
// the capture store, so the captures come first.
func (s *Sniffer) sections() []section {
	m, labels := s.monitor, s.tail.labels
	secs := []section{
		{"captures", infallible(m.Store().EncodeSnapshot), func(b []byte) error { return m.Store().RestoreSnapshot(b, s.src.Lookup) }},
		{"labels", labels.EncodeSnapshot, func(b []byte) error { return labels.RestoreSnapshot(b, s.src.Lookup) }},
		{"extractor", infallible(m.Extractor().EncodeSnapshot), m.Extractor().RestoreSnapshot},
		{"groups", infallible(m.EncodeGroupStats), m.RestoreGroupStats},
	}
	if o := s.cfg.Online; o != nil {
		secs = append(secs, section{"online", infallible(o.EncodeSnapshot), o.RestoreSnapshot})
	}
	return secs
}

func infallible(encode func() []byte) func() ([]byte, error) {
	return func() ([]byte, error) { return encode(), nil }
}

// durabilityMeta fingerprints the configuration axes that change what the
// WAL and checkpoints mean. The store refuses to open a directory written
// under a different fingerprint — replaying another configuration's log
// would silently diverge.
func durabilityMeta(cfg SnifferConfig) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d|%s|%g|%t|%d|%#v",
		cfg.Seed, cfg.Classifier, cfg.ManualLabelErrorRate,
		cfg.NaiveSelection, cfg.CaptureCap, cfg.Specs)))
	return hex.EncodeToString(h[:])
}

// openDurable opens (or creates) the durable store and returns the
// recovery state for recoverDurable to apply once the pipeline exists.
func (s *Sniffer) openDurable() (*store.Recovery, error) {
	d := s.cfg.Durability
	b := d.Backend
	if b == nil {
		var err error
		if b, err = store.NewDir(d.Dir); err != nil {
			return nil, err
		}
	}
	st, rec, err := store.Open(store.Options{
		Backend:   b,
		SyncEvery: d.SyncEvery,
		Meta:      durabilityMeta(s.cfg),
		Metrics:   s.cfg.Metrics,
		Tracer:    s.cfg.Tracer,
		RetainAll: d.RecordRotations,
	})
	if err != nil {
		return nil, fmt.Errorf("pseudohoneypot: open durable store: %w", err)
	}
	s.store = st
	return rec, nil
}

// recoverDurable applies the recovered checkpoint and feeds the WAL tail
// into the stage graph, the way a replay source's posts enter it:
// AdoptCapture repeats Match's bookkeeping, and the graph's extract,
// complete, label and observe steps rebuild the extractor state, re-index
// the label store and re-feed the online detector. A worker-fleet failure
// is latched for RunHours and DetectAll, as in a live hour. The watermark
// then tells the subscribe callback which tweets of the re-run simulation
// are already accounted for. The sniffer keeps only the RecoveryReport of
// rec, so the checkpoint's bytes are released once they are applied.
// Restored and replayed captures resolve their live Sender through the
// source's Lookup. Accounts spawned mid-run do not exist yet in the
// re-seeded world: their captures keep a nil Sender, and the label store
// rebinds them at Snapshot time, once the re-run has recreated them. The
// re-run may cut a checkpoint at an hour it is still re-simulating; it
// equals the uninterrupted run's cut at that seq, because every section
// encodes only facts of the stream (DESIGN.md §14).
func (s *Sniffer) recoverDurable(rec *store.Recovery) error {
	t := s.tail
	s.recovered = &RecoveryReport{Replayed: len(rec.Records), Torn: rec.Torn, Fallbacks: rec.Fallbacks}
	if ck := rec.Checkpoint; ck != nil {
		for _, sec := range s.sections() {
			if b, ok := ck.Components[sec.name]; ok {
				if err := sec.restore(b); err != nil {
					return fmt.Errorf("pseudohoneypot: restore %s: %w", sec.name, err)
				}
			}
		}
		t.lastCaptured = socialnet.TweetID(ck.TweetWatermark)
		s.ckptSeq = ck.Seq
		s.recovered.Checkpoint, s.recovered.CheckpointSeq = true, ck.Seq
	}
	// The store is quiescent until the stream starts, so its sequence is
	// exactly the history the newest checkpoint does not cover: the
	// schedule resumes where the crashed run left it.
	s.sinceCkpt = s.store.Seq() - s.ckptSeq
	for _, r := range rec.Records {
		c, err := s.monitor.AdoptCapture(&r.Tweet, r.Sender, r.Receiver, r.Groups, s.src.Lookup)
		if err != nil {
			return fmt.Errorf("pseudohoneypot: replay capture %d: %w", r.Tweet.ID, err)
		}
		c.Source = r.Src
		s.fanout.Ingest(c)
	}
	// The replayed captures are already in the log: drain them through the
	// graph before the tail starts appending, and let the stream skip what
	// the restored state accounts for.
	s.drainPipeline()
	t.wal = s.store
	s.watermark = t.lastCaptured
	return nil
}

// checkpointDue is the compaction schedule (DESIGN.md §14), decided at an
// hour boundary: cut a checkpoint once the WAL records logged since the
// newest one number at least as many as it covers, or once a WAL append
// has failed since (the capture it lost is only in memory). Checkpoint
// sizes then grow geometrically, so all checkpoints together cost about
// twice the final state rather than one full state per hour, and recovery
// replays at most the covered history plus one hour. The record count is
// delivery-goroutine state — never the store's sequence before a drain —
// so every topology and worker count cuts at the same hours. Only the
// failure flag comes from the tail, which runs behind the delivery
// goroutine: a failure it has not reached by this boundary cuts at the
// next one.
func (s *Sniffer) checkpointDue() bool {
	return s.sinceCkpt > 0 && s.sinceCkpt >= s.ckptSeq || s.tail.walFailed.Load()
}

// checkpointDurable runs at an hour boundary on the engine goroutine: the
// engine (sole producer) is idle, so draining the stage graph reaches full
// quiescence and every component can be snapshotted consistently. A failed
// checkpoint is not fatal — the WAL still covers everything since the last
// good one, the store's checkpoint_errors counter records the miss, and the
// schedule, left as it was, tries again at the next hour.
func (s *Sniffer) checkpointDurable() error {
	s.drainPipeline()
	ck := &store.Checkpoint{
		TweetWatermark: int64(s.tail.lastCaptured),
		Components:     make(map[string][]byte, 5),
	}
	// Each component encodes into a buffer of its own, which the
	// checkpoint then holds as is.
	for _, sec := range s.sections() {
		b, err := sec.encode()
		if err != nil {
			return fmt.Errorf("pseudohoneypot: checkpoint %s: %w", sec.name, err)
		}
		ck.Components[sec.name] = b
	}
	if err := s.store.WriteCheckpoint(ck); err != nil {
		return err
	}
	s.ckptSeq, s.sinceCkpt = ck.Seq, 0
	s.tail.walFailed.Store(false)
	return nil
}

// DurableStore exposes the WAL/checkpoint store (nil when durability is
// disabled) for sequence inspection and explicit syncs.
func (s *Sniffer) DurableStore() *store.Store { return s.store }

// RecoveryReport is what recovery found at startup.
type RecoveryReport struct {
	// Checkpoint reports whether a checkpoint was restored, and
	// CheckpointSeq the record sequence it covers.
	Checkpoint    bool
	CheckpointSeq uint64
	// Replayed counts the WAL capture records replayed past it.
	Replayed int
	// Torn counts WAL segments that ended in a torn write.
	Torn int
	// Fallbacks counts checkpoints that failed verification and were
	// skipped in favour of an older one.
	Fallbacks int
}

// Recovery reports what recovery found at startup: the checkpoint used,
// how many WAL records were replayed, torn tails tolerated, and checkpoint
// fallbacks taken. Nil when durability is disabled.
func (s *Sniffer) Recovery() *RecoveryReport { return s.recovered }
