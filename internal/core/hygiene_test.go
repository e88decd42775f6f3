package core

import (
	"math/rand"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

func TestSelectionHygieneSkipsFollowHeavyAccounts(t *testing.T) {
	w := testWorld(t)
	m := NewMonitor(MonitorConfig{
		Specs: []SelectorSpec{{
			Selector: socialnet.Selector{Attr: socialnet.AttrFriends, Value: 1000},
			Nodes:    20,
		}},
		Seed: 1,
	}, &LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
	m.Rotate(time.Now(), time.Hour)
	for id := range m.CurrentNodes() {
		a := w.Account(id)
		if a.FriendFollowerRatio() > DefaultMaxRatio {
			t.Fatalf("node %d ratio %v exceeds hygiene bound",
				id, a.FriendFollowerRatio())
		}
	}
}

func TestSelectionHygieneDisabled(t *testing.T) {
	w := testWorld(t)
	mk := func(maxRatio float64) int {
		m := NewMonitor(MonitorConfig{
			Specs: []SelectorSpec{{
				Selector: socialnet.Selector{Attr: socialnet.AttrFriends, Value: 1000},
				Nodes:    200,
			}},
			MaxRatio: maxRatio,
			Seed:     1,
		}, &LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
		m.Rotate(time.Now(), time.Hour)
		return len(m.nodes)
	}
	withHygiene := mk(0)     // default bound
	withoutHygiene := mk(-1) // disabled
	if withoutHygiene < withHygiene {
		t.Fatalf("disabling hygiene shrank the candidate pool: %d < %d",
			withoutHygiene, withHygiene)
	}
}

func TestHygieneNotAppliedToRatioSelectors(t *testing.T) {
	w := testWorld(t)
	// The ratio=10 sample value deliberately selects follow-heavy
	// accounts; hygiene must not empty it.
	m := NewMonitor(MonitorConfig{
		Specs: []SelectorSpec{{
			Selector: socialnet.Selector{Attr: socialnet.AttrFriendFollowerRatio, Value: 10},
			Nodes:    10,
		}},
		Seed: 1,
	}, &LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
	m.Rotate(time.Now(), time.Hour)
	if len(m.nodes) == 0 {
		t.Fatal("hygiene emptied the ratio-attribute selector")
	}
	found := false
	for id := range m.CurrentNodes() {
		if w.Account(id).FriendFollowerRatio() > DefaultMaxRatio*0.6 {
			found = true
		}
	}
	if !found {
		t.Fatal("ratio selector found no high-ratio accounts")
	}
}

func TestActiveOnlyColdStartFallback(t *testing.T) {
	// Hour zero: nobody has posted, so no account is Active. Selection
	// must fall back rather than start empty.
	w := testWorld(t)
	m := NewMonitor(MonitorConfig{
		Specs:      RandomSpec(40),
		ActiveOnly: true,
		Seed:       1,
	}, &LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
	m.Rotate(time.Now(), time.Hour)
	if len(m.nodes) < 40 {
		t.Fatalf("cold-start selection found only %d nodes", len(m.nodes))
	}
}
