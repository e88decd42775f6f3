package twitterapi

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
)

// flakyStream serves statuses/filter but ends the response after one
// tweet, with no control line: a stream cut mid-hour.
type flakyStream struct {
	connects atomic.Int64
	tweets   atomic.Int64
}

func (f *flakyStream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/1.1/statuses/filter.json" {
		http.NotFound(w, r)
		return
	}
	f.connects.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	_ = enc.Encode(Tweet{ID: f.tweets.Add(1)})
	if flusher, ok := w.(http.Flusher); ok {
		flusher.Flush()
	}
	// Return, closing this response — a dropped stream.
}

// TestStreamSingleConnectionEndsAtDrop: Stream is one connection. When the
// server drops it, Next reports io.EOF; nothing reconnects, and the
// connect and tweet counters agree with what the server sent.
func TestStreamSingleConnectionEndsAtDrop(t *testing.T) {
	flaky := &flakyStream{}
	srv := httptest.NewServer(flaky)
	defer srv.Close()
	reg := metrics.NewRegistry()
	client := NewClient(srv.URL, srv.Client())
	client.SetMetrics(reg)

	st, err := client.Stream(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tw, err := st.Next()
	if err != nil || tw.ID != 1 {
		t.Fatalf("first line: %+v, %v", tw, err)
	}
	if _, err := st.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the drop: %v, want io.EOF", err)
	}
	if flaky.connects.Load() != 1 {
		t.Fatalf("connected %d times, want 1", flaky.connects.Load())
	}
	if got := reg.Counter("ph_stream_connects_total", "").Value(); got != 1 {
		t.Fatalf("connects counter = %v, want 1", got)
	}
	if got := reg.Counter("ph_stream_tweets_total", "").Value(); got != 1 {
		t.Fatalf("stream tweets counter = %v, want 1", got)
	}
}

// rejectingServer answers statuses/filter with a 400.
type rejectingServer struct {
	hits atomic.Int64
}

func (s *rejectingServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.hits.Add(1)
	writeErr(w, http.StatusBadRequest, "bad filter")
}

func TestStreamStopsOnClientError(t *testing.T) {
	rejecting := &rejectingServer{}
	srv := httptest.NewServer(rejecting)
	defer srv.Close()

	client := NewClient(srv.URL, srv.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := client.Stream(ctx, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != 400 {
		t.Fatalf("want 400 APIError, got %v", err)
	}
	if rejecting.hits.Load() != 1 {
		t.Fatalf("client retried a 400: %d hits", rejecting.hits.Load())
	}
}

func TestStreamContextCancellation(t *testing.T) {
	// A server that accepts the stream but never sends anything.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		if flusher, ok := w.(http.Flusher); ok {
			flusher.Flush()
		}
		<-r.Context().Done()
	}))
	defer srv.Close()

	client := NewClient(srv.URL, srv.Client())
	ctx, cancel := context.WithCancel(context.Background())
	st, err := client.Stream(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	done := make(chan error, 1)
	go func() {
		_, err := st.Next()
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("Next after cancellation = %v, want the cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not return after cancellation")
	}
}

// TestStreamOpensBeforeTraffic: the server answers a filter request as
// soon as it has registered the stream, even when nothing matches yet, so
// a client may open the stream and only then advance time. The first line
// after one advance is that hour's control line.
func TestStreamOpensBeforeTraffic(t *testing.T) {
	srv, client := newTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	st, err := client.Stream(ctx, []string{"@nobody_matches_this"})
	if err != nil {
		t.Fatalf("quiet stream did not open: %v", err)
	}
	defer st.Close()
	srv.Advance(1)
	tw, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	if tw.HourEnd == nil || tw.HourEnd.Hour != 0 || tw.HourEnd.Dropped != 0 {
		t.Fatalf("first line %+v, want hour 0's control line", tw)
	}
}
