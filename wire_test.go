package pseudohoneypot

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/twitterapi"
)

// goldenWireFingerprint pins the golden configuration run over the wire:
// the simulation served by an oracle API server whose screening seed is the
// in-process screener's (goldenStream's Seed + 1), consumed through
// NewWireSource. The captured tweets are the golden run's; the result is
// not goldenStreamingFingerprint because profiles come off the wire (public
// fields only) and receivers resolve through Lookup.
const goldenWireFingerprint = "1051a0cee0ddd1ac8c8b0b720b3b999e237f381d54467773dfe2cca6ceefda8f"

// wireSources serves the cell's simulation over the emulated API and
// returns it as the one source. The server closes with the test.
func wireSources(t *testing.T) func(*Simulation) []IngestSource {
	return wireSourcesVia(t, nil)
}

// wireSourcesVia is wireSources with the API handler fronted by wrap.
func wireSourcesVia(t *testing.T, wrap func(http.Handler) http.Handler) func(*Simulation) []IngestSource {
	return func(sim *Simulation) []IngestSource {
		var h http.Handler = sim.NewAPIServer(twitterapi.WithSeed(goldenStream(nil).Seed+1),
			twitterapi.WithOracle(), twitterapi.WithMetrics(NewMetricsRegistry()))
		if wrap != nil {
			h = wrap(h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		src, err := NewWireSource(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		return []IngestSource{src}
	}
}

// cutStream lets one line of every statuses/filter response through and
// then fails its writes, ending the response: a connection cut mid-hour.
type cutStream struct {
	http.ResponseWriter
	left int
}

func (c *cutStream) Write(b []byte) (int, error) {
	if c.left == 0 {
		return 0, errors.New("connection cut")
	}
	c.left--
	return c.ResponseWriter.Write(b)
}

func (c *cutStream) Flush() { c.ResponseWriter.(http.Flusher).Flush() }

// TestWireStreamCutFailsRun: a stream cut before the hour's control line
// fails Sniffer.RunHours — the wire never reconnects and never hands the
// pipeline a silently short hour — and the sniffer still closes cleanly.
func TestWireStreamCutFailsRun(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "2")
	t.Cleanup(goroutineBaseline(t))
	sim := testSimulation(t)
	cfg := shardGoldenConfig(2, "inproc")
	cfg.Sources = wireSourcesVia(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/statuses/filter.json") {
				w = &cutStream{ResponseWriter: w, left: 1}
			}
			next.ServeHTTP(w, r)
		})
	})(sim)
	sn, err := NewSniffer(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	err = sn.RunHours(2)
	if err == nil || !strings.Contains(err.Error(), "stream ended before the hour's control line") {
		t.Fatalf("RunHours = %v, want the cut stream", err)
	}
}
