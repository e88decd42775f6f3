package twitterapi

import (
	"net/http"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
)

// clientInstruments is the client's view of the metrics registry
// (DESIGN.md §9). Stream counters count statuses/filter connections and
// the tweets (not control lines) they delivered.
type clientInstruments struct {
	connects     *metrics.Counter
	streamTweets *metrics.Counter
	rateLimited  *metrics.Counter
	reqSecs      *metrics.HistogramVec
}

func newClientInstruments(r *metrics.Registry) *clientInstruments {
	return &clientInstruments{
		connects: r.Counter("ph_stream_connects_total",
			"Successful statuses/filter stream attachments."),
		streamTweets: r.Counter("ph_stream_tweets_total",
			"Tweets delivered by the streaming consumer."),
		rateLimited: r.Counter("ph_client_rate_limited_total",
			"HTTP 429 responses observed by the REST client."),
		reqSecs: r.HistogramVec("ph_client_request_seconds",
			"REST request latency by endpoint path.", nil, "path"),
	}
}

// serverInstruments is the API server's view of the metrics registry.
type serverInstruments struct {
	requests      *metrics.CounterVec
	reqSecs       *metrics.HistogramVec
	streams       *metrics.Gauge
	streamTweets  *metrics.Counter
	streamDropped *metrics.Counter
}

func newServerInstruments(r *metrics.Registry) *serverInstruments {
	return &serverInstruments{
		requests: r.CounterVec("ph_api_requests_total",
			"REST requests served, by endpoint class.", "endpoint"),
		reqSecs: r.HistogramVec("ph_api_request_seconds",
			"REST request latency by endpoint class.", nil, "endpoint"),
		streams: r.Gauge("ph_api_streams",
			"Currently connected statuses/filter streams."),
		streamTweets: r.Counter("ph_api_stream_tweets_total",
			"Tweets fanned out to connected streams."),
		streamDropped: r.Counter("ph_api_stream_dropped_total",
			"Tweets dropped on slow stream consumers (limit notices)."),
	}
}

// observed wraps a REST handler with request counting and latency timing.
func (s *Server) observed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	requests := s.ins.requests.With(endpoint)
	latency := s.ins.reqSecs.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		requests.Inc()
		h(w, r)
		latency.ObserveDuration(start)
	}
}
