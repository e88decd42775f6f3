package twitterapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// The client honours a 429's Retry-After once and surfaces a second 429
// as an APIError; the daemon never answers 429, so these tests serve it
// from a bare handler.

func TestClientRetriesAfter429(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits == 1 {
			w.Header().Set("Retry-After", "0")
			writeErr(w, http.StatusTooManyRequests, "slow down")
			return
		}
		writeJSON(w, SimStats{Hours: 7})
	}))
	defer srv.Close()

	client := NewClient(srv.URL, srv.Client())
	client.MaxBackoff = 50 * time.Millisecond
	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats after 429: %v", err)
	}
	if stats.Hours != 7 || hits != 2 {
		t.Fatalf("stats=%+v hits=%d", stats, hits)
	}
}

func TestClientGivesUpAfterSecond429(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		writeErr(w, http.StatusTooManyRequests, "slow down")
	}))
	defer srv.Close()

	client := NewClient(srv.URL, srv.Client())
	client.MaxBackoff = 20 * time.Millisecond
	_, err := client.Stats(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusTooManyRequests {
		t.Fatalf("want persistent 429 error, got %v", err)
	}
}
