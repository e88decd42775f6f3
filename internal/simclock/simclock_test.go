package simclock

import (
	"container/heap"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSimulatedStartsAtEpochByDefault(t *testing.T) {
	c := NewSimulated(time.Time{})
	if got := c.Now(); !got.Equal(Epoch) {
		t.Fatalf("Now() = %v, want epoch %v", got, Epoch)
	}
}

func TestSimulatedStartsAtGivenInstant(t *testing.T) {
	start := time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC)
	c := NewSimulated(start)
	if got := c.Now(); !got.Equal(start) {
		t.Fatalf("Now() = %v, want %v", got, start)
	}
}

func TestSimulatedAdvance(t *testing.T) {
	c := NewSimulated(time.Time{})
	got := c.Advance(90 * time.Minute)
	want := Epoch.Add(90 * time.Minute)
	if !got.Equal(want) {
		t.Fatalf("Advance = %v, want %v", got, want)
	}
	if !c.Now().Equal(want) {
		t.Fatalf("Now after Advance = %v, want %v", c.Now(), want)
	}
}

func TestSimulatedAdvanceIgnoresNegative(t *testing.T) {
	c := NewSimulated(time.Time{})
	c.Advance(-time.Hour)
	if got := c.Now(); !got.Equal(Epoch) {
		t.Fatalf("negative Advance moved clock to %v", got)
	}
}

func TestSimulatedSetRefusesPast(t *testing.T) {
	c := NewSimulated(time.Time{})
	c.Advance(time.Hour)
	if c.Set(Epoch) {
		t.Fatal("Set accepted an instant in the past")
	}
	if !c.Set(Epoch.Add(2 * time.Hour)) {
		t.Fatal("Set refused an instant in the future")
	}
}

func TestWallClockTracksRealTime(t *testing.T) {
	var w Wall
	before := time.Now()
	got := w.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Wall.Now() = %v outside [%v, %v]", got, before, after)
	}
}

// run fires every event of q due by deadline on clock and returns the
// payloads in fire order.
func run[T any](q *Queue[T], clock *Simulated, deadline time.Time) []T {
	var fired []T
	q.RunUntil(clock, deadline, func(_ time.Time, v T) { fired = append(fired, v) })
	return fired
}

func TestQueueOrdersByTime(t *testing.T) {
	var q Queue[int]
	times := []time.Duration{5 * time.Minute, time.Minute, 3 * time.Minute}
	for i, d := range times {
		q.Push(Epoch.Add(d), i)
	}
	order := run(&q, NewSimulated(time.Time{}), Epoch.Add(time.Hour))
	if want := []int{1, 2, 0}; !reflect.DeepEqual(order, want) {
		t.Fatalf("fire order = %v, want %v", order, want)
	}
}

func TestQueueTieBreakIsFIFO(t *testing.T) {
	var q Queue[int]
	at := Epoch.Add(time.Minute)
	for i := 0; i < 10; i++ {
		q.Push(at, i)
	}
	order := run(&q, NewSimulated(time.Time{}), at)
	if len(order) != 10 || !sort.IntsAreSorted(order) {
		t.Fatalf("same-instant events fired out of order: %v", order)
	}
}

func TestQueueRunUntilStopsAtDeadline(t *testing.T) {
	var q Queue[int]
	q.Push(Epoch.Add(time.Minute), 0)
	q.Push(Epoch.Add(2*time.Hour), 1)
	clock := NewSimulated(time.Time{})
	if fired := run(&q, clock, Epoch.Add(time.Hour)); !reflect.DeepEqual(fired, []int{0}) {
		t.Fatalf("fired %v, want [0]", fired)
	}
	if q.Len() != 1 {
		t.Fatalf("queue length = %d, want 1 pending", q.Len())
	}
	if !clock.Now().Equal(Epoch.Add(time.Hour)) {
		t.Fatalf("clock = %v, want advanced to deadline", clock.Now())
	}
}

func TestQueueRunUntilAdvancesClockToEventInstant(t *testing.T) {
	var q Queue[int]
	at := Epoch.Add(42 * time.Minute)
	q.Push(at, 0)
	clock := NewSimulated(time.Time{})
	var seen, clockAt time.Time
	q.RunUntil(clock, Epoch.Add(time.Hour), func(now time.Time, _ int) {
		seen, clockAt = now, clock.Now()
	})
	if !seen.Equal(at) || !clockAt.Equal(at) {
		t.Fatalf("event observed now = %v and clock %v, want %v", seen, clockAt, at)
	}
}

// An empty queue fires nothing, and RunUntil still moves the clock to the
// deadline.
func TestQueuePopEmpty(t *testing.T) {
	var q Queue[int]
	clock := NewSimulated(time.Time{})
	if fired := run(&q, clock, Epoch.Add(time.Hour)); len(fired) != 0 {
		t.Fatalf("empty queue fired %v", fired)
	}
	if !clock.Now().Equal(Epoch.Add(time.Hour)) {
		t.Fatalf("clock = %v, want advanced to deadline", clock.Now())
	}
}

func TestQueueEventsScheduledDuringRunFire(t *testing.T) {
	var q Queue[int]
	fired := 0
	q.Push(Epoch.Add(time.Minute), 0)
	q.RunUntil(NewSimulated(time.Time{}), Epoch.Add(time.Hour), func(now time.Time, v int) {
		fired++
		if v == 0 {
			q.Push(now.Add(time.Minute), 1)
		}
	})
	if fired != 2 {
		t.Fatalf("fired %d, want cascaded event to fire too", fired)
	}
}

// Property: draining the queue yields a non-decreasing time sequence no
// matter the insertion order.
func TestQueuePopOrderProperty(t *testing.T) {
	prop := func(offsets []int16) bool {
		var q Queue[int]
		for i, off := range offsets {
			d := time.Duration(int64(off)&0x7fff) * time.Second
			q.Push(Epoch.Add(d), i)
		}
		var last time.Time
		ok, n := true, 0
		q.RunUntil(NewSimulated(time.Time{}), Epoch.Add(0x8000*time.Second), func(now time.Time, _ int) {
			if !last.IsZero() && now.Before(last) {
				ok = false
			}
			last = now
			n++
		})
		return ok && n == len(offsets) && q.Len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil fires exactly the events at or before the deadline.
func TestQueueRunUntilCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var q Queue[int]
		deadline := Epoch.Add(time.Duration(rng.Intn(3600)) * time.Second)
		want := 0
		for i := 0; i < 100; i++ {
			at := Epoch.Add(time.Duration(rng.Intn(7200)) * time.Second)
			if !at.After(deadline) {
				want++
			}
			q.Push(at, i)
		}
		if got := len(run(&q, NewSimulated(time.Time{}), deadline)); got != want {
			t.Fatalf("trial %d: fired %d, want %d", trial, got, want)
		}
		if q.Len() != 100-want {
			t.Fatalf("trial %d: %d pending, want %d", trial, q.Len(), 100-want)
		}
	}
}

// oracleQueue is the pointer-heap queue Queue replaced: container/heap
// over *oracleEvent, ordered through time.Time.Equal/Before and then
// push order. TestQueueMatchesHeapOracle holds Queue to its fire order.
type oracleQueue struct {
	h   oracleHeap
	seq uint64
}

type oracleEvent struct {
	at   time.Time
	seq  uint64
	fire func(now time.Time)
}

func (q *oracleQueue) Push(at time.Time, fire func(now time.Time)) {
	q.seq++
	heap.Push(&q.h, &oracleEvent{at: at, seq: q.seq, fire: fire})
}

func (q *oracleQueue) RunUntil(clock *Simulated, deadline time.Time) {
	for len(q.h) > 0 && !q.h[0].at.After(deadline) {
		ev := heap.Pop(&q.h).(*oracleEvent)
		clock.Set(ev.at)
		ev.fire(ev.at)
	}
	clock.Set(deadline)
}

type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(*oracleEvent)) }
func (h *oracleHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

// firing is what one fired event observed.
type firing struct {
	id         int
	now, clock time.Time
}

// TestQueueMatchesHeapOracle drives Queue and the container/heap oracle
// through the same script and requires the same firings: instants drawn
// from a minute, so most collide exactly; one event at each deadline; and
// fired events that push children due before their own instant, at it, at
// the round's deadline and past it. The script runs as several RunUntil
// rounds, so what one round leaves pending fires in a later one.
func TestQueueMatchesHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		deadlines := make([]time.Time, 4)
		for r := range deadlines {
			deadlines[r] = Epoch.Add(time.Duration(10*(r+1)+rng.Intn(10)) * time.Second)
		}
		type push struct {
			id int
			at time.Time
		}
		var initial []push
		for i, n := 0, 1+rng.Intn(200); i < n; i++ {
			initial = append(initial, push{i, Epoch.Add(time.Duration(rng.Intn(60)) * time.Second)})
		}
		for r, d := range deadlines {
			initial = append(initial, push{1000 + r, d})
		}
		// spawn returns the instants at which event id, fired at now in
		// the round ending at deadline, pushes children. Children get
		// ids from 5000 up, and only the first few hundred spawn more.
		spawn := func(id int, now, deadline time.Time) []time.Time {
			if id >= 5600 {
				return nil
			}
			crng := rand.New(rand.NewSource(seed*1e6 + int64(id)))
			var ats []time.Time
			for k := crng.Intn(3); k > 0; k-- {
				ats = append(ats, now.Add(time.Duration(crng.Intn(30)-10)*time.Second))
			}
			if crng.Intn(4) == 0 {
				ats = append(ats, deadline)
			}
			return ats
		}

		var got, want []firing
		var q Queue[int]
		qc, nextQ := NewSimulated(time.Time{}), 5000
		var oq oracleQueue
		oc, nextO := NewSimulated(time.Time{}), 5000
		var deadline time.Time
		var oracleFire func(id int) func(time.Time)
		oracleFire = func(id int) func(time.Time) {
			return func(now time.Time) {
				want = append(want, firing{id, now, oc.Now()})
				for _, at := range spawn(id, now, deadline) {
					oq.Push(at, oracleFire(nextO))
					nextO++
				}
			}
		}
		for _, p := range initial {
			q.Push(p.at, p.id)
			oq.Push(p.at, oracleFire(p.id))
		}
		for r, d := range deadlines {
			deadline = d
			q.RunUntil(qc, d, func(now time.Time, id int) {
				got = append(got, firing{id, now, qc.Now()})
				for _, at := range spawn(id, now, d) {
					q.Push(at, nextQ)
					nextQ++
				}
			})
			oq.RunUntil(oc, d)
			if !qc.Now().Equal(d) || !oc.Now().Equal(d) || q.Len() != oq.h.Len() {
				t.Fatalf("seed %d round %d: clock %v / %v, want %v; pending %d / %d",
					seed, r, qc.Now(), oc.Now(), d, q.Len(), oq.h.Len())
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: %d firings, oracle %d; first difference at %d",
				seed, len(got), len(want), firstDiff(got, want))
		}
	}
}

func firstDiff(a, b []firing) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

func TestSimulatedConcurrentAdvance(t *testing.T) {
	c := NewSimulated(time.Time{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			c.Advance(time.Millisecond)
		}
	}()
	for i := 0; i < 1000; i++ {
		_ = c.Now()
	}
	<-done
	want := Epoch.Add(1000 * time.Millisecond)
	if !c.Now().Equal(want) {
		t.Fatalf("after concurrent advances Now() = %v, want %v", c.Now(), want)
	}
}
