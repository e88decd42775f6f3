package report

import (
	"encoding/json"
	"io"
	"strconv"
	"strings"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// MetricsTable flattens a registry snapshot into a table — one row per
// sample, histograms summarized as count/sum — so a run's final counters
// render alongside the paper tables.
func MetricsTable(families []metrics.FamilySnapshot) *Table {
	t := &Table{
		Title:   "Run Metrics",
		Headers: []string{"Metric", "Labels", "Type", "Value", "Count", "Sum"},
	}
	for _, fam := range families {
		for _, s := range fam.Samples {
			labels := make([]string, 0, len(s.Labels))
			for _, l := range s.Labels {
				labels = append(labels, l.Name+"="+l.Value)
			}
			value, count, sum := FormatFloat(s.Value), "", ""
			if fam.Type == metrics.TypeHistogram {
				value = ""
				count = strconv.FormatUint(s.Count, 10)
				sum = FormatFloat(s.Sum)
			}
			t.AddRow(fam.Name, strings.Join(labels, ","), fam.Type.String(),
				value, count, sum)
		}
	}
	return t
}

// Export bundles a run's output tables with the final state of its metrics
// registry, so an archived result carries the operational counters
// (node-hours, captures, PGE gauges) that produced it.
type Export struct {
	Tables  []*Table                 `json:"tables"`
	Metrics []metrics.FamilySnapshot `json:"metrics,omitempty"`
	// Traces is the run's stage-latency attribution: per-stage
	// p50/p95/max over the tracer's retained spans plus the slowest
	// trace ids. Present only when tracing was enabled (WithTraces).
	Traces *trace.Summary `json:"traces,omitempty"`
}

// NewExport snapshots reg (nil ⇒ no metrics section) alongside tables.
func NewExport(tables []*Table, reg *metrics.Registry) *Export {
	e := &Export{Tables: tables}
	if reg != nil {
		e.Metrics = reg.Snapshot()
	}
	return e
}

// slowTracesInExport bounds the slowest-trace list embedded in exports.
const slowTracesInExport = 5

// WithTraces embeds t's stage-latency summary (no-op when t is nil or
// retained nothing) and returns e for chaining.
func (e *Export) WithTraces(t *trace.Tracer) *Export {
	if t == nil {
		return e
	}
	if sum := t.Summary(slowTracesInExport); sum.Traces > 0 {
		e.Traces = sum
	}
	return e
}

// WriteJSON writes the export as indented JSON.
func (e *Export) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}
