// Package simclock provides deterministic virtual time for driving the
// social-network simulation and the pseudo-honeypot rotation schedule.
//
// All simulation components take a Clock rather than calling time.Now
// directly, so experiments replay bit-for-bit under a fixed seed. The
// package also provides an event queue ordered by virtual time, which the
// traffic engine uses to interleave account activity.
package simclock

import (
	"sync"
	"time"
)

// Epoch is the virtual-time origin used by simulated clocks when no explicit
// start is given. It matches the paper's data-collection period (March 2018).
var Epoch = time.Date(2018, time.March, 10, 0, 0, 0, 0, time.UTC)

// Clock abstracts the passage of time. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
}

// Simulated is a manually advanced Clock. The zero value is not usable; use
// NewSimulated.
type Simulated struct {
	mu  sync.RWMutex
	now time.Time
}

var _ Clock = (*Simulated)(nil)

// NewSimulated returns a Simulated clock starting at start. A zero start
// begins at Epoch.
func NewSimulated(start time.Time) *Simulated {
	if start.IsZero() {
		start = Epoch
	}
	return &Simulated{now: start}
}

// Now returns the current virtual instant.
func (c *Simulated) Now() time.Time {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new instant.
// Negative durations are ignored so time never runs backwards.
func (c *Simulated) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now = c.now.Add(d)
	}
	return c.now
}

// Set moves the clock to t if t is not before the current instant.
// It reports whether the clock moved.
func (c *Simulated) Set(t time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.Before(c.now) {
		return false
	}
	c.now = t
	return true
}

// Wall is a Clock backed by the real time.Now. It exists so production-style
// binaries (cmd/twitterd) can share code paths with the simulation.
type Wall struct{}

var _ Clock = Wall{}

// Now returns the wall-clock time.
func (Wall) Now() time.Time { return time.Now() }

// Queue is a virtual-time event queue of values. Events fire in (instant,
// push order) order: the earlier instant first, and events pushed for the
// same instant in the order they were pushed. Each event is one slot of a
// slice-backed binary heap, so scheduling allocates nothing once the slice
// has grown. The zero value is an empty queue. It is not safe for
// concurrent use; the traffic engine drives it from a single goroutine.
type Queue[T any] struct {
	h   []slot[T]
	seq uint64
}

// slot is one scheduled event. key is at.UnixNano(), which orders exactly
// as time.Time.Before for every instant between 1678 and 2262; seq is the
// push order and breaks ties.
type slot[T any] struct {
	key int64
	seq uint64
	at  time.Time
	v   T
}

func (s *slot[T]) before(o *slot[T]) bool {
	return s.key < o.key || s.key == o.key && s.seq < o.seq
}

// Len returns the number of pending events.
func (q *Queue[T]) Len() int { return len(q.h) }

// Push schedules v to fire at instant at.
func (q *Queue[T]) Push(at time.Time, v T) {
	q.seq++
	s := slot[T]{key: at.UnixNano(), seq: q.seq, at: at, v: v}
	q.h = append(q.h, s)
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(&q.h[p]) {
			break
		}
		q.h[i] = q.h[p]
		i = p
	}
	q.h[i] = s
}

// RunUntil pops the events due at or before deadline in order, sets the
// clock to each event's instant and calls fire with it; fire may push
// further events, which fire in this call if they are due by deadline.
// The clock ends at deadline.
func (q *Queue[T]) RunUntil(clock *Simulated, deadline time.Time, fire func(now time.Time, v T)) {
	end := deadline.UnixNano()
	for len(q.h) > 0 && q.h[0].key <= end {
		s := q.pop()
		clock.Set(s.at)
		fire(s.at, s.v)
	}
	clock.Set(deadline)
}

// pop removes and returns the earliest event: the last slot moves into
// the root's place and sifts down.
func (q *Queue[T]) pop() slot[T] {
	top := q.h[0]
	n := len(q.h) - 1
	last := q.h[n]
	q.h[n] = slot[T]{} // drop the payload's references
	q.h = q.h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.h[c+1].before(&q.h[c]) {
			c++
		}
		if !q.h[c].before(&last) {
			break
		}
		q.h[i] = q.h[c]
		i = c
	}
	if n > 0 {
		q.h[i] = last
	}
	return top
}
