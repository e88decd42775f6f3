package source

import (
	"errors"
	"sort"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// nsShift positions the child index in the high bits of namespaced ids.
// Simulated tweet and account ids stay far below 2^40, so offsetting
// child i's ids by i<<40 keeps every source's id space disjoint while
// preserving relative order within a child. It is the account set's
// namespace boundary, so each child's exclusions are one page of the
// monitor's set.
const nsShift = socialnet.NamespaceShift

// MuxSource merges several sources into one deterministic stream. Each
// hour it fires its own hour hooks, runs every child for one hour while
// buffering their posts, and delivers the merged hour ordered by
// (CreatedAt, child index, tweet id) — a total order independent of
// goroutine scheduling, so muxed runs pin fingerprints the same way
// single-source runs do.
//
// Ids from child 0 pass through untouched (the common twitter+extras
// layout keeps the primary source's stream bit-identical and the mux
// overhead near zero); every other child's tweet, author, and mention
// ids are offset into a per-child namespace so accounts from different
// worlds can never collide.
type MuxSource struct {
	children []Source
	listeners
	pending []childPost
	hour    int
	// single marks the one-child fast path: with nothing to merge, hooks,
	// subscriptions, and runs delegate straight to the child, so wrapping
	// a sole source in a mux costs nothing (the ingest bench gates this).
	single bool
}

type childPost struct {
	ci int
	p  Post
}

var _ Source = (*MuxSource)(nil)
var _ Screening = (*MuxSource)(nil)

// NewMux merges the given sources. At least one child is required; child
// order is significant (it breaks delivery ties and assigns namespaces).
func NewMux(children ...Source) *MuxSource {
	m := &MuxSource{children: children}
	if len(children) == 1 {
		m.single = true
		return m
	}
	for i, c := range children {
		ci := i
		c.Subscribe(func(p Post) {
			m.pending = append(m.pending, childPost{ci: ci, p: p})
		})
	}
	return m
}

// ID implements Source.
func (m *MuxSource) ID() string { return "mux" }

// OnHourStart implements Source.
func (m *MuxSource) OnHourStart(fn func(hour int, now time.Time)) {
	if m.single {
		m.children[0].OnHourStart(fn)
		return
	}
	m.listeners.OnHourStart(fn)
}

// Subscribe implements Source.
func (m *MuxSource) Subscribe(fn func(p Post)) (cancel func()) {
	if m.single {
		return m.children[0].Subscribe(fn)
	}
	return m.listeners.Subscribe(fn)
}

// RunHours implements Source: hooks, then every child's hour, then the
// merged, namespaced delivery.
func (m *MuxSource) RunHours(n int) error {
	if m.single {
		return m.children[0].RunHours(n)
	}
	for i := 0; i < n; i++ {
		m.startHour(m.hour, m.children[0].Now())
		m.pending = m.pending[:0]
		for _, c := range m.children {
			if err := c.RunHours(1); err != nil {
				return err
			}
		}
		sort.SliceStable(m.pending, func(a, b int) bool {
			pa, pb := m.pending[a], m.pending[b]
			if !pa.p.Tweet.CreatedAt.Equal(pb.p.Tweet.CreatedAt) {
				return pa.p.Tweet.CreatedAt.Before(pb.p.Tweet.CreatedAt)
			}
			if pa.ci != pb.ci {
				return pa.ci < pb.ci
			}
			return pa.p.Tweet.ID < pb.p.Tweet.ID
		})
		for _, cp := range m.pending {
			m.publish(m.namespace(cp.ci, cp.p))
		}
		m.hour++
	}
	return nil
}

// namespace rewrites a child's post into the mux id space. Child 0 is the
// identity; other children's posts are deep-copied with offset ids.
func (m *MuxSource) namespace(ci int, p Post) Post {
	if ci == 0 {
		return p
	}
	off := socialnet.AccountID(int64(ci) << nsShift)
	t := p.Tweet.Clone()
	t.ID += socialnet.TweetID(int64(ci) << nsShift)
	t.AuthorID += off
	for j := range t.Mentions {
		t.Mentions[j] += off
	}
	p.Tweet = t
	return p
}

// Lookup implements Source: the high bits route to the owning child, the
// low bits resolve there, and non-primary results come back as fresh
// wrapper copies carrying the namespaced id. Every call re-reads the
// child's current profile state (e.g. suspensions), and every caller
// gets its own copy: looked-up accounts travel into concurrent pipeline
// stages with captures, so a shared wrapper mutated on the delivery
// goroutine would be a data race.
func (m *MuxSource) Lookup(id socialnet.AccountID) *socialnet.Account {
	if m.single {
		return m.children[0].Lookup(id)
	}
	ci := int(uint64(id) >> nsShift)
	if ci < 0 || ci >= len(m.children) {
		return nil
	}
	base := id - socialnet.AccountID(int64(ci)<<nsShift)
	a := m.children[ci].Lookup(base)
	if a == nil || ci == 0 {
		return a
	}
	return m.wrap(id, a)
}

func (m *MuxSource) wrap(nsID socialnet.AccountID, a *socialnet.Account) *socialnet.Account {
	w := *a
	w.ID = nsID
	return &w
}

// Now implements Source.
func (m *MuxSource) Now() time.Time { return m.children[0].Now() }

// Rotation implements Source: live children rotate normally.
func (m *MuxSource) Rotation(int) []int { return nil }

// Close implements Source.
func (m *MuxSource) Close() error {
	var errs []error
	for _, c := range m.children {
		if err := c.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// NewScreener implements Screening: the mux screener splits each screen
// budget round-robin across the screenable children and namespaces the
// candidates, so monitor groups draw honeypot nodes from every live
// population.
func (m *MuxSource) NewScreener(seed int64) core.Screener {
	ms := &muxScreener{mux: m}
	for ci, c := range m.children {
		if sc, ok := c.(Screening); ok {
			ms.screeners = append(ms.screeners, childScreener{
				ci: ci,
				// Distinct derived seeds keep the children's sampling
				// streams independent.
				scr: sc.NewScreener(seed + int64(ci)*7919),
			})
		}
	}
	return ms
}

type childScreener struct {
	ci  int
	scr core.Screener
	// ex is the child's namespace page of the query's exclusions.
	ex socialnet.AccountSet
}

type muxScreener struct {
	mux       *MuxSource
	screeners []childScreener
}

// Screen implements core.Screener across the mux's screenable children.
// Each child is handed its own namespace page of the exclusion set, moved
// to its local ids.
func (ms *muxScreener) Screen(q socialnet.ScreenQuery, now time.Time) []*socialnet.Account {
	k := len(ms.screeners)
	if k == 0 {
		return nil
	}
	var out []*socialnet.Account
	for i := range ms.screeners {
		cs := &ms.screeners[i]
		share := q.Count / k
		if i < q.Count%k {
			share++
		}
		if share == 0 {
			continue
		}
		cq := q
		cq.Count = share
		cs.ex = q.Exclude.Namespace(cs.ci)
		cq.Exclude = &cs.ex
		off := socialnet.AccountID(int64(cs.ci) << nsShift)
		for _, a := range cs.scr.Screen(cq, now) {
			if cs.ci == 0 {
				out = append(out, a)
				continue
			}
			out = append(out, ms.mux.wrap(a.ID+off, a))
		}
	}
	return out
}
