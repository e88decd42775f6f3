package source

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/twitterapi"
)

// wireWorld is the world every wire test serves unless it says otherwise.
func wireWorld() socialnet.Config {
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 1500
	cfg.OrganicTweetsPerHour = 400
	return cfg
}

// serveWorld generates a world from cfg and serves it over the emulated
// API with the given screening seed. wrap, when non-nil, fronts the API
// handler (fault injection). The server closes with the test.
func serveWorld(t *testing.T, cfg socialnet.Config, seed int64, wrap func(http.Handler) http.Handler) (*socialnet.Engine, string) {
	t.Helper()
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := socialnet.NewEngine(w)
	var h http.Handler = twitterapi.NewServer(e, twitterapi.WithSeed(seed),
		twitterapi.WithMetrics(metrics.NewRegistry()))
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return e, ts.URL
}

// monitorConfig is the monitor every wire test rotates: the sniffer's
// selection settings over a small random plan.
func monitorConfig(nodes int) core.MonitorConfig {
	return core.MonitorConfig{
		Specs:      core.RandomSpec(nodes),
		ActiveOnly: true,
		Seed:       1,
		Metrics:    metrics.NewRegistry(),
	}
}

// monitored is a monitor driven by a source the way the sniffer drives
// one: rotate in the hour hook, Match every delivered post.
type monitored struct {
	m        *core.Monitor
	nodes    []map[socialnet.AccountID][]int // node set per hour
	posts    []socialnet.TweetID             // every delivered post
	captures []*core.Capture                 // what Match captured
	cancel   func()
}

func monitorSource(src Source, scr core.Screener, cfg core.MonitorConfig) *monitored {
	r := &monitored{m: core.NewMonitor(cfg, scr)}
	src.OnHourStart(func(_ int, now time.Time) {
		r.m.Rotate(now, time.Hour)
		r.nodes = append(r.nodes, r.m.CurrentNodes())
	})
	r.cancel = src.Subscribe(func(p Post) {
		r.posts = append(r.posts, p.Tweet.ID)
		if c := r.m.Match(p.Tweet, src.Lookup); c != nil {
			r.captures = append(r.captures, c)
		}
	})
	return r
}

// wireRun attaches a monitor to a fresh wire source at url.
func wireRun(t *testing.T, url string, cfg core.MonitorConfig) (*Wire, *monitored) {
	t.Helper()
	w, err := NewWire(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	return w, monitorSource(w, w.NewScreener(cfg.Seed+1), cfg)
}

func captureIDs(r *monitored) []socialnet.TweetID {
	var ids []socialnet.TweetID
	for _, c := range r.captures {
		ids = append(ids, c.Tweet.ID)
	}
	return ids
}

// TestWireEndToEnd runs three hours over the wire: one rotation and one
// stream per hour, every capture resolved to a sender profile, the clock
// taken from the server, and the client's stream counters equal to what
// was delivered.
func TestWireEndToEnd(t *testing.T) {
	engine, url := serveWorld(t, wireWorld(), 2, nil)
	w, run := wireRun(t, url, monitorConfig(50))
	reg := metrics.NewRegistry()
	w.client.SetMetrics(reg)
	if w.ID() != "wire" || w.Rotation(0) != nil {
		t.Fatalf("ID %q, Rotation %v", w.ID(), w.Rotation(0))
	}
	start := w.Now()
	if !start.Equal(engine.Now()) {
		t.Fatalf("wire clock %v, server clock %v", start, engine.Now())
	}
	if err := w.RunHours(3); err != nil {
		t.Fatal(err)
	}
	if got := len(run.nodes); got != 3 {
		t.Fatalf("rotations = %d, want 3", got)
	}
	if !w.Now().Equal(start.Add(3 * time.Hour)) {
		t.Fatalf("clock %v after 3 hours from %v", w.Now(), start)
	}
	captures := run.captures
	if len(captures) == 0 {
		t.Fatal("wire run captured nothing")
	}
	for _, c := range captures {
		if c.Sender == nil || c.ReceiverSnapshot() == nil && !isNode(run.nodes, c.Tweet.AuthorID) {
			t.Fatalf("capture %d without its profiles", c.Tweet.ID)
		}
	}
	if got := reg.Counter("ph_stream_connects_total", "").Value(); got != 3 {
		t.Fatalf("stream connects = %v, want one per hour", got)
	}
	if got := reg.Counter("ph_stream_tweets_total", "").Value(); got != float64(len(run.posts)) {
		t.Fatalf("stream tweets counter = %v, delivered %d", got, len(run.posts))
	}
	n := len(run.posts)
	run.cancel()
	if err := w.RunHours(1); err != nil {
		t.Fatal(err)
	}
	if len(run.posts) != n {
		t.Fatal("cancel did not stop delivery")
	}
}

func isNode(nodes []map[socialnet.AccountID][]int, id socialnet.AccountID) bool {
	for _, set := range nodes {
		if _, ok := set[id]; ok {
			return true
		}
	}
	return false
}

// TestWireMatchesInProcess: against a server seeded like the in-process
// screener (seed+1), every hour's node set over the wire equals the
// in-process one — the server filters before it samples, so no node is
// ever reused — and the captures are the same tweets in the same order.
func TestWireMatchesInProcess(t *testing.T) {
	const hours = 4
	cfg := monitorConfig(120)

	world, err := socialnet.NewWorld(wireWorld())
	if err != nil {
		t.Fatal(err)
	}
	local := NewTwitter(world, socialnet.NewEngine(world))
	want := monitorSource(local, &core.LocalScreener{World: world, Rng: rand.New(rand.NewSource(cfg.Seed + 1))}, cfg)
	if err := local.RunHours(hours); err != nil {
		t.Fatal(err)
	}

	_, url := serveWorld(t, wireWorld(), cfg.Seed+1, nil)
	cfg.Metrics = metrics.NewRegistry()
	w, got := wireRun(t, url, cfg)
	if err := w.RunHours(hours); err != nil {
		t.Fatal(err)
	}

	used := make(map[socialnet.AccountID]int)
	for h := 0; h < hours; h++ {
		if fmt.Sprint(got.nodes[h]) != fmt.Sprint(want.nodes[h]) {
			t.Fatalf("hour %d: wire selected %d nodes, in-process %d, and they differ",
				h, len(got.nodes[h]), len(want.nodes[h]))
		}
		for id := range got.nodes[h] {
			if prev, ok := used[id]; ok {
				t.Fatalf("node %d reused in hour %d (first used in hour %d)", id, h, prev)
			}
			used[id] = h
		}
	}
	if g, wnt := fmt.Sprint(captureIDs(got)), fmt.Sprint(captureIDs(want)); g != wnt || len(got.captures) == 0 {
		t.Fatalf("wire captured %d tweets, in-process %d, and they differ", len(got.captures), len(want.captures))
	}
}

// TestWireTrackCoversMatch is the superset property the wire rests on:
// over the same hours, the stream under the wire's track list carries
// every tweet of the whole firehose that Monitor.Match would capture for
// that hour's node set — checked against the server's engine directly —
// and the monitor captures exactly those.
func TestWireTrackCoversMatch(t *testing.T) {
	engine, url := serveWorld(t, wireWorld(), 2, nil)
	w, run := wireRun(t, url, monitorConfig(80))
	// The hook that records the node set runs on this goroutine; the
	// engine callback runs in the server's advance handler.
	var mu sync.Mutex
	var nodes map[socialnet.AccountID][]int
	w.OnHourStart(func(int, time.Time) {
		mu.Lock()
		nodes = run.m.CurrentNodes()
		mu.Unlock()
	})
	var hits []socialnet.TweetID
	cancel := engine.Subscribe(func(tw *socialnet.Tweet) {
		mu.Lock()
		defer mu.Unlock()
		hit := false
		if _, ok := nodes[tw.AuthorID]; ok {
			hit = true
		}
		for _, m := range tw.Mentions {
			if _, ok := nodes[m]; ok {
				hit = true
			}
		}
		if hit {
			hits = append(hits, tw.ID)
		}
	})
	defer cancel()
	if err := w.RunHours(3); err != nil {
		t.Fatal(err)
	}
	streamed := make(map[socialnet.TweetID]struct{}, len(run.posts))
	for _, id := range run.posts {
		streamed[id] = struct{}{}
	}
	for _, id := range hits {
		if _, ok := streamed[id]; !ok {
			t.Fatalf("tweet %d hits a node but was not streamed (%d hits, %d streamed)", id, len(hits), len(streamed))
		}
	}
	if got, want := fmt.Sprint(captureIDs(run)), fmt.Sprint(hits); got != want || len(hits) == 0 {
		t.Fatalf("monitor captured %d tweets, the firehose holds %d hits", len(run.captures), len(hits))
	}
}

// TestWireDeterministic: two runs against fresh servers with the same seed
// deliver identical streams.
func TestWireDeterministic(t *testing.T) {
	stream := func() string {
		_, url := serveWorld(t, wireWorld(), 2, nil)
		w, err := NewWire(url)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		monitorSource(w, w.NewScreener(2), monitorConfig(60))
		var b strings.Builder
		w.Subscribe(func(p Post) {
			fmt.Fprintf(&b, "%d %d %v %q %v\n", p.Tweet.ID, p.Tweet.AuthorID, p.Tweet.CreatedAt, p.Tweet.Text, p.Tweet.Mentions)
			if a := w.Lookup(p.Tweet.AuthorID); a != nil {
				fmt.Fprintf(&b, "  %+v\n", *a)
			}
		})
		if err := w.RunHours(3); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first, second := stream(), stream()
	if first == "" || first != second {
		t.Fatalf("same-seed wire runs delivered different streams (%d vs %d bytes)", len(first), len(second))
	}
}

func TestNewWireRejectsBadServers(t *testing.T) {
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	for _, url := range []string{"", "localhost:8331", "ftp://example.org", "http://", gone.URL} {
		if w, err := NewWire(url); err == nil {
			_ = w.Close()
			t.Errorf("NewWire(%q) accepted", url)
		}
	}
}

// fault fronts the API: requests whose path contains path get fn instead.
func fault(path string, fn http.HandlerFunc) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.Contains(r.URL.Path, path) {
				fn(w, r)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

func failWith(code int) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		fmt.Fprintf(w, `{"code":%d,"message":"injected fault"}`, code)
	}
}

// cutWriter lets through the first n lines of a stream, then fails every
// write, which ends the response — a connection cut mid-hour.
type cutWriter struct {
	http.ResponseWriter
	n int
}

func (c *cutWriter) Write(b []byte) (int, error) {
	if c.n <= 0 {
		return 0, errors.New("cut")
	}
	c.n--
	return c.ResponseWriter.Write(b)
}

func (c *cutWriter) Flush() { c.ResponseWriter.(http.Flusher).Flush() }

// rewriteHour serves the stream with every control line's hour shifted.
type rewriteHour struct{ http.ResponseWriter }

func (r rewriteHour) Write(b []byte) (int, error) {
	out := strings.Replace(string(b), `"hour":`, `"hour":9`, 1)
	if _, err := r.ResponseWriter.Write([]byte(out)); err != nil {
		return 0, err
	}
	return len(b), nil
}

func (r rewriteHour) Flush() { r.ResponseWriter.(http.Flusher).Flush() }

// TestWireFailsLoudly: every way an hour can go wrong ends RunHours with
// an error naming it — never a silently short hour. A dead users/lookup
// is not among them: the track list comes from the screening results.
func TestWireFailsLoudly(t *testing.T) {
	cases := []struct {
		name string
		wrap func(http.Handler) http.Handler
		want string // error substring; empty: the hour succeeds
	}{
		{"search fails", fault("/users/search.json", failWith(http.StatusInternalServerError)), "users/search"},
		{"no nodes", fault("/users/search.json", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprint(w, "[]")
		}), "rotation selected no nodes"},
		{"lookup down", fault("/users/lookup.json", failWith(http.StatusInternalServerError)), ""},
		{"advance fails", fault("/sim/advance.json", failWith(http.StatusInternalServerError)), "sim/advance"},
		{"stream rejected", fault("/statuses/filter.json", failWith(http.StatusForbidden)), "statuses/filter"},
		{"stream cut", func(next http.Handler) http.Handler {
			return fault("/statuses/filter.json", func(w http.ResponseWriter, r *http.Request) {
				next.ServeHTTP(&cutWriter{ResponseWriter: w, n: 1}, r)
			})(next)
		}, "stream ended before the hour's control line"},
		{"wrong hour", func(next http.Handler) http.Handler {
			return fault("/statuses/filter.json", func(w http.ResponseWriter, r *http.Request) {
				next.ServeHTTP(rewriteHour{w}, r)
			})(next)
		}, "control line closes hour 90, want 0"},
		{"drops reported", fault("/statuses/filter.json", func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{"id":1,"user":{"id":2}}`+"\n"+`{"x_hour_end":{"hour":0,"dropped":3}}`+"\n")
		}), "server dropped 3 tweets"},
		{"line json rejects", fault("/statuses/filter.json", func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{"id":1,"user":{"id":2}}`+"\n"+`{"id":1,`+"\n")
		}), "decode stream"},
		{"line too long", fault("/statuses/filter.json", func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
			// The client reads lines of at most 1 MiB.
			fmt.Fprint(w, `{"text":"`+strings.Repeat("x", 2<<20)+`"}`+"\n")
		}), "token too long"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, url := serveWorld(t, wireWorld(), 2, tc.wrap)
			w, _ := wireRun(t, url, monitorConfig(50))
			done := make(chan error, 1)
			go func() { done <- w.RunHours(1) }()
			var err error
			select {
			case err = <-done:
			case <-time.After(callDeadline):
				t.Fatal("the hour hung")
			}
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "hour 0") {
				t.Fatalf("err = %v, want %q with the hour", err, tc.want)
			}
		})
	}
}

// TestWireAdvanceTimeout: a server that stops answering fails the hour
// after callDeadline instead of hanging it.
func TestWireAdvanceTimeout(t *testing.T) {
	_, url := serveWorld(t, wireWorld(), 2, fault("/sim/advance.json", func(_ http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	w, _ := wireRun(t, url, monitorConfig(20))
	start := time.Now()
	err := w.RunHours(1)
	if !errors.Is(err, errSilent) {
		t.Fatalf("err = %v, want the silence deadline", err)
	}
	if elapsed := time.Since(start); elapsed < callDeadline || elapsed > callDeadline+5*time.Second {
		t.Fatalf("failed after %v, want about %v", elapsed, callDeadline)
	}
}

// TestWireCloseCancelsRun: Close aborts an hour in flight at once.
func TestWireCloseCancelsRun(t *testing.T) {
	arrived := make(chan struct{})
	var once sync.Once
	_, url := serveWorld(t, wireWorld(), 2, fault("/sim/advance.json", func(_ http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(arrived) })
		<-r.Context().Done()
	}))
	w, _ := wireRun(t, url, monitorConfig(20))
	done := make(chan error, 1)
	go func() { done <- w.RunHours(2) }()
	<-arrived
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RunHours succeeded after Close")
		}
	case <-time.After(callDeadline / 2):
		t.Fatal("Close did not cancel the hour in flight")
	}
}

// TestWireConsumerFallsBehind: a consumer that stalls through an hour
// whose stream outgrows the server's per-connection queue gets an error
// naming how many tweets it lost, not a short run.
func TestWireConsumerFallsBehind(t *testing.T) {
	cfg := wireWorld()
	cfg.NumAccounts = 2000
	cfg.OrganicTweetsPerHour = 15000
	advanced := make(chan struct{})
	_, url := serveWorld(t, cfg, 2, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			next.ServeHTTP(w, r)
			if strings.Contains(r.URL.Path, "/sim/advance.json") {
				close(advanced)
			}
		})
	})
	// Every account is a node, so the track list is the whole firehose.
	w, _ := wireRun(t, url, monitorConfig(cfg.NumAccounts))
	stalled := false
	w.Subscribe(func(Post) {
		if !stalled {
			stalled = true
			<-advanced // the server finishes the hour meanwhile
		}
	})
	err := w.RunHours(1)
	m := regexp.MustCompile(`server dropped (\d+) tweets`).FindStringSubmatch(fmt.Sprint(err))
	if m == nil {
		t.Fatalf("err = %v, want the drop count", err)
	}
	if n, _ := strconv.Atoi(m[1]); n <= 0 {
		t.Fatalf("drop count %d", n)
	}
}

// TestWireLookupFallback: profiles seen in search results or as authors
// never touch the wire; an unknown id costs one users/lookup, and a
// failing lookup degrades to nil.
func TestWireLookupFallback(t *testing.T) {
	var lookups atomic.Int64
	var down atomic.Bool
	engine, url := serveWorld(t, wireWorld(), 2, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.Contains(r.URL.Path, "/users/lookup.json") {
				lookups.Add(1)
				if down.Load() {
					failWith(http.StatusInternalServerError)(w, r)
					return
				}
			}
			next.ServeHTTP(w, r)
		})
	})
	w, run := wireRun(t, url, monitorConfig(30))
	if err := w.RunHours(1); err != nil {
		t.Fatal(err)
	}
	for id := range run.nodes[0] {
		if w.Lookup(id) == nil {
			t.Fatalf("node %d not resolved", id)
		}
	}
	if lookups.Load() != 0 {
		t.Fatalf("%d users/lookup calls for cached profiles", lookups.Load())
	}
	var unseen socialnet.AccountID = -1
	for _, a := range engine.World().Accounts() {
		w.mu.Lock()
		_, cached := w.profiles[a.ID]
		w.mu.Unlock()
		if !cached {
			unseen = a.ID
			break
		}
	}
	if a := w.Lookup(unseen); a == nil || a.ID != unseen || lookups.Load() != 1 {
		t.Fatalf("fallback lookup of %d = %v after %d calls", unseen, a, lookups.Load())
	}
	if w.Lookup(unseen) == nil || lookups.Load() != 1 {
		t.Fatal("a fallback result was not cached")
	}
	down.Store(true)
	if a := w.Lookup(1 << 40); a != nil {
		t.Fatalf("lookup against a failing endpoint = %+v, want nil", a)
	}
}
