package main

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Times are nanoseconds since
// the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: root of its goroutine's tree
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced run's spans in memory. It is safe for concurrent
// use; nesting is tracked per goroutine by a track.
type recorder struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, epoch: time.Now(), spans: make([]span, 0, 1<<17)}
}

// track is the stack of open spans of one goroutine: a span begun on a track
// is the child of the span open on it. A track must not be shared between
// goroutines.
type track struct {
	rec   *recorder
	stack []int
}

func (r *recorder) track() *track { return &track{rec: r} }

func (t *track) begin(name string) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	r := t.rec
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Run: r.run, Name: name,
		Start: int64(time.Since(r.epoch)), End: -1,
	})
	r.mu.Unlock()
	t.stack = append(t.stack, id)
}

func (t *track) end() {
	n := len(t.stack) - 1
	id := t.stack[n]
	t.stack = t.stack[:n]
	r := t.rec
	end := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

// layerTotals is the per-name aggregate of a finished recording.
type layerTotals struct {
	SelfS float64 // Σ (duration − time covered by child spans)
	Calls int
}

// traceSummary folds a finished recording. The main tree is span 0 (the run)
// with everything nested under it, all on the goroutine the result waits for;
// spans of the stage goroutines form trees of their own that overlap it.
type traceSummary struct {
	ByName map[string]layerTotals
	// WallS is the duration of span 0.
	WallS float64
	// MainLayerS is Σ self time of the layer spans in the main tree, and
	// UnattributedS what is left of WallS: the self time of the benchmark's
	// own phase spans (run, setup, collect, detect, close).
	MainLayerS    float64
	UnattributedS float64
}

// isLayer reports whether a span name belongs to a layer of the program
// ("<module>.<name>") as opposed to the benchmark's own phase structure.
func isLayer(name string) bool { return strings.Contains(name, ".") }

// summarize checks that the recording is well formed — every span ended, its
// parent exists and contains it, siblings do not overlap — and folds it.
func summarize(spans []span) (*traceSummary, error) {
	if len(spans) == 0 {
		return nil, fmt.Errorf("no spans recorded")
	}
	children := make([]int64, len(spans)) // ns covered by direct children
	lastChildEnd := make([]int64, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d %q: end %d before start %d (never ended?)", s.ID, s.Name, s.End, s.Start)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= s.ID {
			return nil, fmt.Errorf("span %d %q: parent %d does not precede it", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return nil, fmt.Errorf("span %d %q not inside its parent %d %q", s.ID, s.Name, p.ID, p.Name)
		}
		// Spans are recorded in the order they began, so the siblings before
		// this one are the spans already seen under the same parent.
		if s.Start < lastChildEnd[s.Parent] {
			return nil, fmt.Errorf("span %d %q overlaps an earlier child of %d %q", s.ID, s.Name, p.ID, p.Name)
		}
		lastChildEnd[s.Parent] = s.End
		children[s.Parent] += s.End - s.Start
	}
	sum := &traceSummary{
		ByName: make(map[string]layerTotals),
		WallS:  float64(spans[0].End-spans[0].Start) / 1e9,
	}
	// Parents precede children, so one forward pass settles which spans
	// descend from span 0.
	inMain := make([]bool, len(spans))
	inMain[0] = true
	for i, s := range spans {
		if s.Parent >= 0 {
			inMain[i] = inMain[s.Parent]
		}
		selfS := float64(s.End-s.Start-children[i]) / 1e9
		t := sum.ByName[s.Name]
		t.SelfS += selfS
		t.Calls++
		sum.ByName[s.Name] = t
		switch {
		case !inMain[i]:
		case isLayer(s.Name):
			sum.MainLayerS += selfS
		default:
			sum.UnattributedS += selfS
		}
	}
	return sum, nil
}
