package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics/metricstest"
)

// reExpose renders parsed samples back into exposition text: one lazy
// "# TYPE <name> untyped" declaration per distinct sample name, then each
// sample with sorted labels, using the same value/label formatting as
// WriteText.
func reExpose(samples []metricstest.Sample) string {
	var b strings.Builder
	declared := make(map[string]bool)
	for _, s := range samples {
		if !declared[s.Name] {
			declared[s.Name] = true
			b.WriteString("# TYPE ")
			b.WriteString(s.Name)
			b.WriteString(" untyped\n")
		}
		b.WriteString(s.Name)
		if len(s.Labels) > 0 {
			names := make([]string, 0, len(s.Labels))
			for n := range s.Labels {
				names = append(names, n)
			}
			sort.Strings(names)
			b.WriteByte('{')
			for i, n := range names {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(n)
				b.WriteString(`="`)
				b.WriteString(escapeLabel(s.Labels[n]))
				b.WriteByte('"')
			}
			b.WriteByte('}')
		}
		b.WriteByte(' ')
		b.WriteString(formatValue(s.Value))
		b.WriteByte('\n')
	}
	return b.String()
}

// sampleKey folds a sample into a comparable string; NaN values collapse
// to a marker so NaN == NaN for the round-trip comparison.
func sampleKey(s metricstest.Sample) string {
	v := formatValue(s.Value)
	if math.IsNaN(s.Value) {
		v = "NaN"
	}
	return s.Name + "\xff" + metricstest.LabelKey(s.Labels) + "\xff" + v
}

// FuzzParseExposition checks the parse → expose → parse fixed point: any
// payload ParseText accepts must re-render through the WriteText formatting
// helpers into a payload that parses back to the identical sample set.
func FuzzParseExposition(f *testing.F) {
	// A real registry rendering as the anchor seed.
	reg := NewRegistry()
	reg.Counter("ph_seed_total", "seed counter").Add(3)
	reg.GaugeVec("ph_seed_gauge", "seed gauge", "stage").With("classify").Set(-1.5)
	h := reg.HistogramVec("ph_seed_seconds", "seed histogram", nil, "stage")
	h.With("capture").Observe(0.002)
	h.With("capture").Observe(1.7)
	var anchor strings.Builder
	if err := reg.WriteText(&anchor); err != nil {
		f.Fatal(err)
	}
	f.Add(anchor.String())
	f.Add("# TYPE a untyped\na 1\n")
	f.Add("# TYPE a counter\na{x=\"y\"} +Inf\n")
	f.Add("# TYPE a gauge\na{x=\"a\\nb\",z=\"q\\\"\"} NaN\n")
	f.Add("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 2\nh_count 1\n")
	f.Add("# HELP a help text\n# TYPE a untyped\na 1e-9 1234\n")
	f.Add("")

	f.Fuzz(func(t *testing.T, input string) {
		first, err := metricstest.ParseText(strings.NewReader(input))
		if err != nil {
			return // invalid payloads are out of scope
		}
		rendered := reExpose(first)
		second, err := metricstest.ParseText(strings.NewReader(rendered))
		if err != nil {
			t.Fatalf("re-exposed payload rejected: %v\npayload:\n%s", err, rendered)
		}
		if len(first) != len(second) {
			t.Fatalf("sample count changed: %d -> %d\npayload:\n%s",
				len(first), len(second), rendered)
		}
		for i := range first {
			if sampleKey(first[i]) != sampleKey(second[i]) {
				t.Fatalf("sample %d changed:\n was %q\n now %q",
					i, sampleKey(first[i]), sampleKey(second[i]))
			}
		}
	})
}
