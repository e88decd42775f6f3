package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TextContentType is the Content-Type of the Prometheus text exposition
// format served by Handler.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteText renders every family in the Prometheus text exposition format:
// a # HELP and # TYPE header per family, then one line per sample, with
// histograms expanded into cumulative _bucket/_sum/_count series.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, fam := range r.Snapshot() {
		if fam.Help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(fam.Name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(fam.Help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(fam.Name)
		bw.WriteByte(' ')
		bw.WriteString(fam.Type.String())
		bw.WriteByte('\n')
		for _, s := range fam.Samples {
			if fam.Type == TypeHistogram {
				writeHistogramSample(bw, fam.Name, s)
				continue
			}
			writeSample(bw, fam.Name, s.Labels, "", "", formatValue(s.Value))
		}
	}
	return bw.Flush()
}

func writeHistogramSample(bw *bufio.Writer, name string, s Sample) {
	for _, b := range s.Buckets {
		writeSample(bw, name+"_bucket", s.Labels, "le", formatValue(b.UpperBound),
			strconv.FormatUint(b.Count, 10))
	}
	writeSample(bw, name+"_sum", s.Labels, "", "", formatValue(s.Sum))
	writeSample(bw, name+"_count", s.Labels, "", "", strconv.FormatUint(s.Count, 10))
}

// writeSample emits one exposition line; extraName/extraValue append a
// synthetic label (the histogram "le") after the sample's own labels.
func writeSample(bw *bufio.Writer, name string, labels []Label, extraName, extraValue, value string) {
	bw.WriteString(name)
	if len(labels) > 0 || extraName != "" {
		bw.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(l.Name)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(l.Value))
			bw.WriteByte('"')
		}
		if extraName != "" {
			if len(labels) > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(extraName)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(extraValue))
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

// formatValue renders a float the way Prometheus expects: shortest
// round-trip form, with infinities spelled +Inf/-Inf.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// Handler serves the registry in the text exposition format — mount it at
// /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", TextContentType)
		_ = r.WriteText(w)
	})
}

var processStart = time.Now()

// lastStreamRead is the unix-nano timestamp of the most recent healthy
// stream read (0 = never). Stream consumers report through MarkStreamRead
// so /healthz can expose staleness without coupling to the client package.
var lastStreamRead atomic.Int64

// MarkStreamRead records a successful stream read at t, surfaced by
// /healthz as last_stream_read_age_seconds.
func MarkStreamRead(t time.Time) { lastStreamRead.Store(t.UnixNano()) }

// Health is the /healthz response body. Status is "ok" with a 200
// response in the base liveness probe — the extra fields carry context;
// the WAL and shard sections may downgrade Status to "degraded".
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Build identifies the main module ("path@version") when build info
	// is embedded.
	Build string `json:"build,omitempty"`
	// LastStreamReadAgeSeconds is the age of the most recent healthy
	// stream read; nil when the process never consumed a stream.
	LastStreamReadAgeSeconds *float64 `json:"last_stream_read_age_seconds,omitempty"`
	// WAL is the durable-store section, present when the process runs
	// with a WAL + checkpoint store (-store-dir).
	WAL *WALHealth `json:"wal,omitempty"`
	// Shards is the proc-mode worker section, one row per shard, present
	// when the process runs its extract step in worker subprocesses.
	Shards []ShardHealth `json:"shards,omitempty"`
}

// ShardHealth is one proc-mode shard worker's row in a /healthz response,
// as the coordinator's retry loop saw it: no scrape, no staleness window.
type ShardHealth struct {
	// Shard is the shard label ("1".."N").
	Shard string `json:"shard"`
	// Status is "ok" (the last batch was answered), "restarting" (a retry
	// cycle is in progress) or "failed" (a batch ran out of retries; it
	// stays failed for the rest of the run).
	Status string `json:"status"`
	// Restarts counts worker respawns.
	Restarts int `json:"restarts"`
	// LastError is the most recent failed attempt's error.
	LastError string `json:"last_error,omitempty"`
}

// WALHealth is the durable-store section of a /healthz response. The
// daemons fill it from store.Status so an operator probing a durable
// process sees whether its disk state is advancing, not just that the
// process is alive.
type WALHealth struct {
	// LastSeq is the last assigned WAL record sequence.
	LastSeq uint64 `json:"last_seq"`
	// LastCheckpointSeq is the sequence the newest checkpoint covers
	// (0 = no checkpoint yet).
	LastCheckpointSeq uint64 `json:"last_checkpoint_seq"`
	// Segments is the number of WAL segment files on disk.
	Segments int `json:"segments"`
	// LastSyncError is the most recent fsync failure ("" = the last sync
	// succeeded). A non-empty value downgrades Status to "degraded":
	// appends are no longer reliably durable.
	LastSyncError string `json:"last_sync_error,omitempty"`
}

// currentHealth builds the base liveness body: status "ok", uptime, build
// identity, and stream staleness.
func currentHealth() Health {
	h := Health{
		Status:        "ok",
		UptimeSeconds: time.Since(processStart).Seconds(),
		GoVersion:     runtime.Version(),
		Build:         buildString(),
	}
	if ns := lastStreamRead.Load(); ns != 0 {
		age := time.Since(time.Unix(0, ns)).Seconds()
		h.LastStreamReadAgeSeconds = &age
	}
	return h
}

// buildString resolves the embedded main-module identity once.
var buildString = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok || bi.Main.Path == "" {
		return ""
	}
	return bi.Main.Path + "@" + bi.Main.Version
})

// HealthHandler serves a liveness probe: always 200 with
// {"status":"ok",...} plus uptime, build identity, and stream staleness.
func HealthHandler() http.Handler {
	return HealthHandlerFunc()
}

// HealthHandlerFunc serves the liveness probe with each extra applied to
// the body before encoding — the hook the daemons use to attach the WAL
// and shard sections without this package importing the store or the
// fanout. A non-empty WAL.LastSyncError downgrades Status to "degraded"
// and keeps 200: the process is alive and serving. A shard that is not
// "ok" downgrades Status and answers 503: a worker the coordinator is
// restarting, or has given up on, is not a healthy fleet.
func HealthHandlerFunc(extras ...func(*Health)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		h := currentHealth()
		for _, extra := range extras {
			if extra != nil {
				extra(&h)
			}
		}
		code := http.StatusOK
		if h.WAL != nil && h.WAL.LastSyncError != "" {
			h.Status = "degraded"
		}
		for _, sh := range h.Shards {
			if sh.Status != "ok" {
				h.Status, code = "degraded", http.StatusServiceUnavailable
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(h)
	})
}
