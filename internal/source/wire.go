package source

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/twitterapi"
)

// callDeadline bounds how long the wire source waits on the server: a
// search, a lookup, and within an hour the gap between two signs of life
// (the stream opening, a line, the advance answering). A server that stops
// answering fails the run after at most this long instead of hanging it.
const callDeadline = 10 * time.Second

// errSilent is the cause of an hour the server stopped answering.
var errSilent = fmt.Errorf("server silent for %v", callDeadline)

// Wire is a twitterd-style server's emulated Twitter API as a Source: the
// paper's deployment shape (§V-A), where the sniffer is a client of the
// Streaming and REST APIs. One hour runs as:
//
//  1. Rotate: the hour hooks fire (the sniffer rotates through the wire's
//     screener, users/search), and the wire records every account a search
//     returned. The nodes are among them, so their @names are a track
//     list covering every node.
//  2. Attach: statuses/filter opens with that track list; the server has
//     registered the stream when the request returns.
//  3. Advance: POST /sim/advance.json?hours=1. The server ends the hour on
//     every open stream with a control line (twitterapi.HourEnd) behind
//     the hour's tweets.
//  4. Deliver: each tweet is delivered on the RunHours goroutine, up to
//     the control line; then the stream closes.
//
// A dropped tweet, a stream cut before the control line, a failed search,
// an empty rotation or a server silent past callDeadline ends RunHours
// with an error: the source never delivers a silently short hour.
type Wire struct {
	client *twitterapi.Client
	httpc  *http.Client
	// ctx is cancelled by Close, which aborts whatever call is in flight.
	ctx    context.Context
	cancel context.CancelFunc

	listeners
	hour int
	now  time.Time
	conv twitterapi.TweetScratch

	// screened maps every account a search returned since the last hour
	// was delivered to its screen name; screenErr is the first failed
	// search since then. Both belong to the goroutine the hooks run on.
	screened  map[socialnet.AccountID]string
	screenErr error

	// profiles is the Lookup cache, filled from search results and tweet
	// authors. Entries are replaced, never mutated.
	mu       sync.Mutex
	profiles map[socialnet.AccountID]*socialnet.Account
}

var (
	_ Source        = (*Wire)(nil)
	_ Screening     = (*Wire)(nil)
	_ core.Screener = (*Wire)(nil)
)

// NewWire connects to the server at baseURL (e.g. "http://127.0.0.1:8331")
// and reads its simulated clock, which fails fast on a server that is not
// there.
func NewWire(baseURL string) (*Wire, error) {
	httpc := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	ctx, cancel := context.WithCancel(context.Background())
	w := &Wire{
		client:   twitterapi.NewClient(baseURL, httpc),
		httpc:    httpc,
		ctx:      ctx,
		cancel:   cancel,
		screened: make(map[socialnet.AccountID]string),
		profiles: make(map[socialnet.AccountID]*socialnet.Account),
	}
	sctx, scancel := context.WithTimeout(ctx, callDeadline)
	defer scancel()
	stats, err := w.client.Stats(sctx)
	if err == nil {
		err = w.setClock(stats)
	}
	if err != nil {
		_ = w.Close()
		return nil, fmt.Errorf("source: wire %s: %w", baseURL, err)
	}
	return w, nil
}

// setClock adopts the server's simulated hour and instant.
func (w *Wire) setClock(stats *twitterapi.SimStats) error {
	now, err := time.Parse(time.RFC3339, stats.Now)
	if err != nil {
		return fmt.Errorf("server clock: %w", err)
	}
	w.hour, w.now = stats.Hours, now
	return nil
}

// ID implements Source.
func (w *Wire) ID() string { return "wire" }

// RunHours implements Source: n server hours, one stream each.
func (w *Wire) RunHours(n int) error {
	for i := 0; i < n; i++ {
		if err := w.runHour(); err != nil {
			return fmt.Errorf("wire: hour %d: %w", w.hour, err)
		}
	}
	return nil
}

func (w *Wire) runHour() error {
	w.startHour(w.hour, w.now)
	track := make([]string, 0, len(w.screened))
	for _, name := range w.screened {
		track = append(track, "@"+name)
	}
	sort.Strings(track)
	err := w.screenErr
	clear(w.screened)
	w.screenErr = nil
	switch {
	case err != nil:
		return err
	case len(track) == 0:
		return errors.New("rotation selected no nodes")
	}

	// The first failure of the hour is its cause; cancelling ctx with it
	// aborts the rest, whose own errors are consequences. silent fails the
	// hour once the server has gone callDeadline without a line or an
	// answer.
	ctx, cancel := context.WithCancelCause(w.ctx)
	defer cancel(nil)
	silent := time.AfterFunc(callDeadline, func() { cancel(errSilent) })
	defer silent.Stop()
	st, err := w.client.Stream(ctx, track)
	if err != nil {
		cancel(fmt.Errorf("statuses/filter: %w", err))
		return context.Cause(ctx)
	}
	defer st.Close()
	var stats *twitterapi.SimStats
	advanced := make(chan struct{})
	go func() {
		defer close(advanced)
		s, err := w.client.Advance(ctx, 1)
		if err != nil {
			cancel(fmt.Errorf("sim/advance: %w", err))
			return
		}
		stats = s
		silent.Reset(callDeadline)
	}()
	if err := w.readHour(st, silent); err != nil {
		cancel(fmt.Errorf("statuses/filter: %w", err))
	}
	<-advanced
	if err := context.Cause(ctx); err != nil {
		return err
	}
	return w.setClock(stats)
}

// readHour reads the stream up to the hour's control line, delivering
// every tweet on the calling goroutine and resetting silent at every line.
func (w *Wire) readHour(st *twitterapi.StreamConn, silent *time.Timer) error {
	for {
		wt, err := st.Next()
		if errors.Is(err, io.EOF) {
			return errors.New("stream ended before the hour's control line")
		}
		if err != nil {
			return err
		}
		silent.Reset(callDeadline)
		if he := wt.HourEnd; he != nil {
			if he.Dropped != 0 {
				return fmt.Errorf("server dropped %d tweets of this stream (consumer fell behind)", he.Dropped)
			}
			if he.Hour != w.hour {
				return fmt.Errorf("control line closes hour %d, want %d", he.Hour, w.hour)
			}
			return nil
		}
		w.remember(twitterapi.DecodeUser(&wt.User))
		w.publish(Post{Tweet: w.conv.Convert(wt).Clone(), Origin: "wire"})
	}
}

func (w *Wire) remember(a *socialnet.Account) {
	w.mu.Lock()
	w.profiles[a.ID] = a
	w.mu.Unlock()
}

// Lookup implements Source: the profile last seen in a search result or
// as a tweet's author, else one users/lookup call (nil when it fails).
func (w *Wire) Lookup(id socialnet.AccountID) *socialnet.Account {
	w.mu.Lock()
	a := w.profiles[id]
	w.mu.Unlock()
	if a != nil {
		return a
	}
	ctx, cancel := context.WithTimeout(w.ctx, callDeadline)
	defer cancel()
	users, err := w.client.UsersLookup(ctx, []int64{int64(id)})
	if err != nil || len(users) == 0 {
		return nil
	}
	a = twitterapi.DecodeUser(&users[0])
	w.remember(a)
	return a
}

// Now implements Source: the server's simulated time.
func (w *Wire) Now() time.Time { return w.now }

// Rotation implements Source: the wire is live and rotates by screening.
func (w *Wire) Rotation(int) []int { return nil }

// Close implements Source: it cancels any call in flight, the open stream
// included, and closes idle connections.
func (w *Wire) Close() error {
	w.cancel()
	w.httpc.CloseIdleConnections()
	return nil
}

// NewScreener implements Screening with the wire itself. Sampling happens
// on the server, with the server's own seed, so seed is unused.
func (w *Wire) NewScreener(int64) core.Screener { return w }

// Screen implements core.Screener through users/search and records what it
// selected for the hour's track list. After a failed search the rest of
// the rotation screens nothing; RunHours reports the failure.
func (w *Wire) Screen(q socialnet.ScreenQuery, _ time.Time) []*socialnet.Account {
	if w.screenErr != nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(w.ctx, callDeadline)
	defer cancel()
	accounts, err := w.client.Screen(ctx, q)
	if err != nil {
		w.screenErr = fmt.Errorf("users/search: %w", err)
		return nil
	}
	for _, a := range accounts {
		w.screened[a.ID] = a.ScreenName
		w.remember(a)
	}
	return accounts
}
