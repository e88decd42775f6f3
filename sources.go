package pseudohoneypot

import (
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/source"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/store"
)

// NewTwitterSource wraps the simulation as an explicit ingest source —
// the same adapter the sniffer uses implicitly when SnifferConfig.Sources
// is empty. It exists so callers can mux the simulated Twitter firehose
// with other sources.
func NewTwitterSource(sim *Simulation) IngestSource {
	return source.NewTwitter(sim.world, sim.engine)
}

// NewRedditSource creates the synthetic Reddit-like firehose
// (submissions, comments, crossposts) mapped into the Twitter-shaped
// flow. See source.RedditConfig for the knobs.
func NewRedditSource(cfg RedditSourceConfig) (IngestSource, error) {
	return source.NewReddit(cfg)
}

// RedditSourceConfig parameterizes the Reddit-like source.
type RedditSourceConfig = source.RedditConfig

// NewReplaySource opens a recorded capture WAL (written by a run with
// Durability.RecordRotations) as an ingest source that re-feeds every
// capture through the full pipeline.
func NewReplaySource(dir string) (IngestSource, error) {
	b, err := store.NewDir(dir)
	if err != nil {
		return nil, err
	}
	return source.NewReplay(b)
}

// NewWireSource attaches to a twitterd-style server at baseURL as an ingest
// source: the paper's deployment shape, where nodes are screened through
// users/search, mentions tracked through statuses/filter, and each hour
// advanced through /sim/advance (DESIGN.md §17). The server must be
// advanced by this source alone (twitterd without -tick); its own seed
// drives node sampling.
func NewWireSource(baseURL string) (IngestSource, error) {
	return source.NewWire(baseURL)
}

// sourceInstruments exposes per-source ingest counters. Child counters
// are cached per origin; the maps are touched only on the delivery
// goroutine, so no locking.
type sourceInstruments struct {
	posts    *metrics.CounterVec
	captures *metrics.CounterVec
	postC    map[string]*metrics.Counter
	capC     map[string]*metrics.Counter
}

func newSourceInstruments(r *metrics.Registry) *sourceInstruments {
	if r == nil {
		r = metrics.Default()
	}
	return &sourceInstruments{
		posts: r.CounterVec("ph_source_posts_total",
			"Posts delivered by an ingest source.", "source"),
		captures: r.CounterVec("ph_source_captures_total",
			"Delivered posts that matched the monitored node set.", "source"),
		postC: make(map[string]*metrics.Counter),
		capC:  make(map[string]*metrics.Counter),
	}
}

func (si *sourceInstruments) post(origin string) {
	c, ok := si.postC[origin]
	if !ok {
		c = si.posts.With(origin)
		si.postC[origin] = c
	}
	c.Inc()
}

func (si *sourceInstruments) capture(origin string) {
	c, ok := si.capC[origin]
	if !ok {
		c = si.captures.With(origin)
		si.capC[origin] = c
	}
	c.Inc()
}

// rotateHour is the hour hook every streaming topology shares: rotate the
// node set (or re-accrue a replayed rotation), journal the rotation when
// recording, and checkpoint when the schedule says so. It runs on the
// source's delivery goroutine at an hour boundary, when the producer is
// idle — the quiescence the durable checkpoint needs. An hour that cuts no
// checkpoint does not drain the stage graph.
func (s *Sniffer) rotateHour(hour int, now time.Time) {
	if counts := s.src.Rotation(hour); counts != nil {
		// A replayed recording cannot re-screen its world; credit the
		// recorded per-group node counts instead.
		s.monitor.AccrueGroupNodes(counts, time.Hour)
	} else {
		s.monitor.Rotate(now, time.Hour)
		if s.store != nil && s.cfg.Durability.RecordRotations {
			err := s.store.AppendRotation(&store.RotationRecord{
				Hour:   hour,
				Now:    now,
				Counts: s.monitor.LastRotationCounts(),
			})
			if err != nil {
				s.tail.walFailed.Store(true)
			}
			s.sinceCkpt++
		}
	}
	if s.store != nil && hour > 0 && s.checkpointDue() {
		// Failures are non-fatal — the WAL still covers everything since
		// the last good checkpoint.
		_ = s.checkpointDurable()
	}
}

// matchPost runs the ingest step for one delivered post on the delivery
// goroutine: watermark fast-forward, the mention filter (or adoption of a
// replayed capture's recorded match), per-source accounting, and the
// source stamp. It returns nil when the post is not captured.
func (s *Sniffer) matchPost(p source.Post) *core.Capture {
	t := p.Tweet
	if t.ID <= s.watermark {
		// Recovery fast-forward: this tweet's effects (capture or miss)
		// are already in the restored state.
		return nil
	}
	s.srcIns.post(p.Origin)
	var c *core.Capture
	if p.Replay != nil {
		var err error
		c, err = s.monitor.AdoptCapture(t, p.Replay.Sender, p.Replay.Receiver, p.Replay.Groups, s.src.Lookup)
		if err != nil {
			s.latch(err)
			return nil
		}
	} else {
		c = s.monitor.Match(t, s.src.Lookup)
	}
	if c == nil {
		return nil
	}
	c.Source = p.Origin
	s.srcIns.capture(p.Origin)
	return c
}

// writeProfileEpilogue appends the final live profiles of every account
// the run's captures referenced. Runs at Close, after the stage graph has
// stopped; replay resolves senders and receivers (suspension state
// included) from this record instead of a live world.
func (s *Sniffer) writeProfileEpilogue() {
	ids := s.tail.profIDs
	if len(ids) == 0 {
		return
	}
	accounts := make([]*socialnet.Account, 0, len(ids))
	for _, id := range ids {
		if a := s.sim.world.Account(id); a != nil {
			accounts = append(accounts, a)
		}
	}
	_ = s.store.AppendProfiles(accounts)
}
