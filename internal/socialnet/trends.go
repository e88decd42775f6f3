package socialnet

import (
	"math/rand"
	"sort"
)

// TrendState classifies a topic's popularity trajectory (paper Table I,
// category C3).
type TrendState int

// Trend states.
const (
	TrendNone TrendState = iota + 1
	TrendUp
	TrendDown
	TrendPopular
)

// TrendStates lists the trending-based attribute values in presentation
// order (the paper's trending-up, trending-down, popular, no-trending).
var TrendStates = []TrendState{TrendUp, TrendDown, TrendPopular, TrendNone}

func (s TrendState) String() string {
	switch s {
	case TrendNone:
		return "no trending"
	case TrendUp:
		return "trending up"
	case TrendDown:
		return "trending down"
	case TrendPopular:
		return "popular"
	default:
		return "unknown"
	}
}

// Topic is one discussed subject with a popularity time series.
type Topic struct {
	Name  string
	State TrendState
	// Volume is the current tweets-per-hour share of the topic.
	Volume float64
}

// TrendSet is the simulated stand-in for the hashtag/trend analytics feed
// the paper cites ([9]): a set of topics whose volumes drift each hour,
// classified into trending-up/down/popular/none.
type TrendSet struct {
	rng    *rand.Rand
	topics []*Topic
}

var _topicNames = []string{
	"worldcup", "election", "newphone", "album-drop", "finale",
	"earthquake", "openai", "marathon", "eclipse", "budget",
	"festival", "transfer", "derby", "launch", "strike",
	"heatwave", "premiere", "summit", "blackfriday", "playoffs",
	"royalwedding", "volcano", "championship", "keynote", "protest",
	"grammy", "rocket", "storm", "ipo", "olympics",
}

// NewTrendSet creates a TrendSet with the standard topic pool.
func NewTrendSet(rng *rand.Rand) *TrendSet {
	ts := &TrendSet{rng: rng}
	for _, name := range _topicNames {
		ts.topics = append(ts.topics, &Topic{
			Name:   name,
			State:  TrendStates[rng.Intn(len(TrendStates))],
			Volume: 0.5 + rng.Float64(),
		})
	}
	ts.reclassify()
	return ts
}

// Step advances every topic's volume by one hour and reclassifies states.
func (ts *TrendSet) Step() {
	for _, t := range ts.topics {
		drift := 1 + (ts.rng.Float64()-0.5)*0.3
		switch t.State {
		case TrendUp:
			drift += 0.15
		case TrendDown:
			drift -= 0.15
		}
		t.Volume *= drift
		if t.Volume < 0.05 {
			t.Volume = 0.05
		}
		if t.Volume > 50 {
			t.Volume = 50
		}
		// Occasionally flip trajectory so states churn over a long run.
		if ts.rng.Float64() < 0.05 {
			t.State = TrendStates[ts.rng.Intn(len(TrendStates))]
		}
	}
	ts.reclassify()
}

// reclassify marks the top decile of volumes as popular, keeping explicit
// up/down states otherwise.
func (ts *TrendSet) reclassify() {
	byVol := append([]*Topic(nil), ts.topics...)
	sort.Slice(byVol, func(i, j int) bool { return byVol[i].Volume > byVol[j].Volume })
	for i, t := range byVol {
		if i < len(byVol)/10+1 && t.State != TrendUp && t.State != TrendDown {
			t.State = TrendPopular
		}
	}
}

// Sample returns a random topic weighted by volume, preferring topics in
// the given state when any exist. It walks the topics in place, so it
// allocates nothing.
func (ts *TrendSet) Sample(state TrendState) *Topic {
	filter := false
	for _, t := range ts.topics {
		if t.State == state {
			filter = true
			break
		}
	}
	total := 0.0
	for _, t := range ts.topics {
		if !filter || t.State == state {
			total += t.Volume
		}
	}
	r := ts.rng.Float64() * total
	var last *Topic
	for _, t := range ts.topics {
		if filter && t.State != state {
			continue
		}
		r -= t.Volume
		if r <= 0 {
			return t
		}
		last = t
	}
	return last
}

// Topics returns all topics (shared pointers; callers must not mutate).
func (ts *TrendSet) Topics() []*Topic {
	return append([]*Topic(nil), ts.topics...)
}
