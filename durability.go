package pseudohoneypot

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/shard"
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
//
// Durability requires the streaming pipeline (Stream.Enabled).
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

// Checkpoint component keys.
const (
	ckCaptures  = "captures"
	ckLabels    = "labels"
	ckExtractor = "extractor"
	ckGroups    = "groups"
	ckOnline    = "online"
)

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

// openDurable opens (or creates) the durable store and holds the recovery
// state for recoverDurable to apply once the pipeline exists.
func (s *Sniffer) openDurable() error {
	d := s.cfg.Durability
	b := d.Backend
	if b == nil {
		var err error
		if b, err = store.NewDir(d.Dir); err != nil {
			return err
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
		return fmt.Errorf("pseudohoneypot: open durable store: %w", err)
	}
	s.store, s.recovery = st, rec
	return nil
}

// recoverDurable applies the recovered checkpoint and replays the WAL tail
// through the tail the live stream runs: AdoptCapture repeats Match's
// bookkeeping, the stateless vector and tweet prep are recomputed from the
// logged snapshots, and tail.apply rebuilds the extractor state, re-indexes
// the label store and re-feeds the online detector. The watermark then
// tells the subscribe callback which tweets of the re-run simulation are
// already accounted for.
func (s *Sniffer) recoverDurable() error {
	rec, t := s.recovery, s.tail
	world := s.sim.world
	// Accounts spawned mid-run (campaign churn) do not exist yet in the
	// re-seeded world while recovery runs — they reappear only as the
	// simulation re-runs. Any user bound to a frozen fallback here is
	// therefore rebound to the live account at Snapshot time, when it
	// exists again and carries the re-run's mutations (suspensions).
	t.labels.SetResolver(world.Account)
	if ck := rec.Checkpoint; ck != nil {
		if b, ok := ck.Components[ckCaptures]; ok {
			if err := s.monitor.Store().ReadSnapshot(bytes.NewReader(b)); err != nil {
				return fmt.Errorf("pseudohoneypot: restore captures: %w", err)
			}
		}
		if b, ok := ck.Components[ckLabels]; ok {
			if err := t.labels.ReadSnapshot(bytes.NewReader(b), world.Account); err != nil {
				return fmt.Errorf("pseudohoneypot: restore label store: %w", err)
			}
		}
		if b, ok := ck.Components[ckExtractor]; ok {
			if err := s.monitor.Extractor().ReadSnapshot(bytes.NewReader(b)); err != nil {
				return fmt.Errorf("pseudohoneypot: restore extractor: %w", err)
			}
		}
		if b, ok := ck.Components[ckGroups]; ok {
			var gs []core.GroupStatsSnapshot
			if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&gs); err != nil {
				return fmt.Errorf("pseudohoneypot: restore group stats: %w", err)
			}
			if err := s.monitor.RestoreGroupStats(gs); err != nil {
				return err
			}
		}
		if b, ok := ck.Components[ckOnline]; ok && s.cfg.Online != nil {
			if err := s.cfg.Online.ReadSnapshot(bytes.NewReader(b)); err != nil {
				return fmt.Errorf("pseudohoneypot: restore online detector: %w", err)
			}
		}
		t.lastCaptured = socialnet.TweetID(ck.TweetWatermark)
		s.ckptSeq = ck.Seq
	}
	// The store is quiescent until the stream starts, so its sequence is
	// exactly the history the newest checkpoint does not cover: the
	// schedule resumes where the crashed run left it.
	s.sinceCkpt = s.store.Seq() - s.ckptSeq
	items := make([]shard.Item, 0, len(rec.Records))
	for _, r := range rec.Records {
		tw := &r.Tweet
		c, err := s.monitor.AdoptCapture(tw, r.Sender, r.Receiver, r.Groups, world.Account)
		if err != nil {
			return fmt.Errorf("pseudohoneypot: replay capture %d: %w", tw.ID, err)
		}
		items = append(items, shard.Item{C: c, Vec: s.monitor.StatelessVector(c), TweetPrep: t.prep.PrepTweet(tw)})
	}
	t.apply(items)
	// The replayed captures are already in the log; from here on the tail
	// appends, and the stream skips what the restored state accounts for.
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
	snap := func(key string, write func(*bytes.Buffer) error) error {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			return err
		}
		ck.Components[key] = buf.Bytes()
		return nil
	}
	err := errors.Join(
		snap(ckCaptures, func(b *bytes.Buffer) error { return s.monitor.Store().WriteSnapshot(b) }),
		snap(ckLabels, func(b *bytes.Buffer) error { return s.tail.labels.WriteSnapshot(b) }),
		snap(ckExtractor, func(b *bytes.Buffer) error { return s.monitor.Extractor().WriteSnapshot(b) }),
		snap(ckGroups, func(b *bytes.Buffer) error {
			return gob.NewEncoder(b).Encode(s.monitor.SnapshotGroupStats())
		}),
	)
	if err == nil && s.cfg.Online != nil {
		err = snap(ckOnline, func(b *bytes.Buffer) error { return s.cfg.Online.WriteSnapshot(b) })
	}
	if err != nil {
		return fmt.Errorf("pseudohoneypot: checkpoint snapshot: %w", err)
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

// Recovery reports what recovery found at startup: the checkpoint used,
// how many WAL records were replayed, torn tails tolerated, and checkpoint
// fallbacks taken. Nil when durability is disabled.
func (s *Sniffer) Recovery() *store.Recovery { return s.recovery }
