package twitterapi

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// TestSlowConsumerDropsInsteadOfBlocking fills a stream's queue without a
// reader attached: dispatch must not block the engine, must count the
// overflow, and every hour's control line must still be queued, carrying
// the count so the consumer learns what it lost.
func TestSlowConsumerDropsInsteadOfBlocking(t *testing.T) {
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 1000
	cfg.OrganicTweetsPerHour = 300
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(socialnet.NewEngine(w))

	// Register a firehose stream directly, with no reader, and fill its
	// queue to the bound.
	st := &stream{all: true, wake: make(chan struct{}, 1)}
	srv.streamsMu.Lock()
	srv.streams[0] = st
	srv.streamsMu.Unlock()
	for i := 0; i < streamBuffer; i++ {
		st.push([]byte("{}\n"))
	}

	// Advancing must complete despite the full queue.
	srv.Advance(2)

	if st.dropped == 0 {
		t.Fatal("no drops recorded for a slow consumer")
	}
	lines := st.take()
	if len(lines) != streamBuffer+2 {
		t.Fatalf("queue holds %d lines, want %d tweets + 2 control lines", len(lines), streamBuffer)
	}
	for i, hour := range []int{0, 1} {
		tw := new(Tweet)
		if err := json.Unmarshal(lines[streamBuffer+i], tw); err != nil {
			t.Fatal(err)
		}
		if he := tw.HourEnd; he == nil || he.Hour != hour || he.Dropped == 0 {
			t.Fatalf("control line %d = %+v, want hour %d with drops", i, he, hour)
		}
		if i == 1 && tw.HourEnd.Dropped != st.dropped {
			t.Fatalf("last control line reports %d drops, stream counted %d", tw.HourEnd.Dropped, st.dropped)
		}
	}
}

func TestStreamWantsFiltering(t *testing.T) {
	st := &stream{tracked: map[socialnet.AccountID]struct{}{7: {}}}
	tests := []struct {
		name string
		t    *socialnet.Tweet
		want bool
	}{
		{name: "mention of tracked", t: &socialnet.Tweet{AuthorID: 1, Mentions: []socialnet.AccountID{7}}, want: true},
		{name: "authored by tracked", t: &socialnet.Tweet{AuthorID: 7}, want: true},
		{name: "unrelated", t: &socialnet.Tweet{AuthorID: 1, Mentions: []socialnet.AccountID{2}}, want: false},
		{name: "no mentions", t: &socialnet.Tweet{AuthorID: 1}, want: false},
	}
	for _, tt := range tests {
		if got := st.wants(tt.t); got != tt.want {
			t.Errorf("%s: wants = %v, want %v", tt.name, got, tt.want)
		}
	}
	all := &stream{all: true}
	if !all.wants(&socialnet.Tweet{AuthorID: 1}) {
		t.Fatal("firehose stream rejected a tweet")
	}
}

func TestAdvanceRejectsBadHours(t *testing.T) {
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 200
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(socialnet.NewEngine(w))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())

	for _, hours := range []int{0, -5, 100000} {
		if _, err := client.Advance(context.Background(), hours); err == nil {
			t.Fatalf("Advance(%d) accepted", hours)
		}
	}
}
