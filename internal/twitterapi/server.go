package twitterapi

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/trace"
)

// streamBuffer is the per-connection tweet buffer. It absorbs the burst an
// hour-tick produces; on overflow the server drops tweets and counts them,
// mirroring the real Streaming API's limit notices for slow consumers.
const streamBuffer = 4096

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithOracle exposes ground-truth spam fields on streamed tweets. Only
// evaluation harnesses should enable this.
func WithOracle() ServerOption {
	return func(s *Server) { s.oracle = true }
}

// WithSeed sets the seed for the server's screening rng.
func WithSeed(seed int64) ServerOption {
	return func(s *Server) { s.rng = rand.New(rand.NewSource(seed)) }
}

// WithMetrics routes the server's instrumentation — and the /metrics
// endpoint it serves — through r instead of metrics.Default().
func WithMetrics(r *metrics.Registry) ServerOption {
	return func(s *Server) { s.reg = r }
}

// WithTracer serves t's ring buffer at GET /debug/traces and
// GET /debug/traces/{id}.
func WithTracer(t *trace.Tracer) ServerOption {
	return func(s *Server) { s.tracer = t }
}

// WithPprof mounts net/http/pprof under /debug/pprof/. Profiling exposes
// internals, so it stays off unless the operator opts in (-pprof).
func WithPprof() ServerOption {
	return func(s *Server) { s.pprof = true }
}

// WithHealth enriches the /healthz body with extra sections before it is
// encoded — twitterd attaches the WAL durability status (last checkpoint
// seq, segment count, last fsync error) through it when journaling to
// -store-dir, so durable state stops being healthy-by-omission.
func WithHealth(extra func(*metrics.Health)) ServerOption {
	return func(s *Server) { s.healthExtras = append(s.healthExtras, extra) }
}

// WithAdvanceHook calls fn with the hour count after every successful
// time advance (tick or POST /sim/advance.json), while the simulation is
// still paused. twitterd journals simulated time through it so a restarted
// daemon can fast-forward to where the world left off.
func WithAdvanceHook(fn func(hours int)) ServerOption {
	return func(s *Server) { s.advanceHook = fn }
}

// Server exposes a socialnet Engine over the emulated Twitter API. All
// engine access is serialized through an internal mutex, so handlers may
// run concurrently.
type Server struct {
	mu     sync.Mutex
	engine *socialnet.Engine
	rng    *rand.Rand
	oracle bool

	streamsMu sync.Mutex
	streams   map[int]*stream
	nextID    int

	limiter     *rateLimiter
	mux         *http.ServeMux
	reg         *metrics.Registry
	ins         *serverInstruments
	tracer      *trace.Tracer
	pprof       bool
	advanceHook func(hours int)

	healthExtras []func(*metrics.Health)
}

// stream is one connected streaming client. Lines are encoded when the
// engine produces them and queued for the handler, which writes them
// without taking the engine lock, so a consumer that keeps up drains the
// queue while the hour is still running.
type stream struct {
	// tracked holds the accounts whose posts, and posts mentioning them,
	// the stream delivers; all delivers the full firehose instead.
	tracked map[socialnet.AccountID]struct{}
	all     bool

	mu      sync.Mutex
	lines   [][]byte // encoded NDJSON lines not yet written
	tweets  int      // tweet lines among them, at most streamBuffer
	dropped int64
	wake    chan struct{} // capacity 1: lines are waiting
}

// push queues a tweet line, or drops and counts it when the consumer is
// streamBuffer tweets behind.
func (st *stream) push(line []byte) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.tweets >= streamBuffer {
		st.dropped++
		return false
	}
	st.tweets++
	st.queue(line)
	return true
}

// endHour queues the control line closing simulated hour h, with the drop
// count so far. Control lines are never dropped.
func (st *stream) endHour(h int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.queue(encodeLine(struct {
		HourEnd HourEnd `json:"x_hour_end"`
	}{HourEnd{Hour: h, Dropped: st.dropped}}))
}

// queue appends a line and wakes the handler; st.mu is held.
func (st *stream) queue(line []byte) {
	st.lines = append(st.lines, line)
	select {
	case st.wake <- struct{}{}:
	default:
	}
}

// take removes every queued line.
func (st *stream) take() [][]byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	lines := st.lines
	st.lines, st.tweets = nil, 0
	return lines
}

var _ http.Handler = (*Server)(nil)

// NewServer wraps engine in an API server.
func NewServer(engine *socialnet.Engine, opts ...ServerOption) *Server {
	s := &Server{
		engine:  engine,
		rng:     rand.New(rand.NewSource(42)),
		streams: make(map[int]*stream),
		mux:     http.NewServeMux(),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.reg == nil {
		s.reg = metrics.Default()
	}
	s.ins = newServerInstruments(s.reg)
	// One engine subscription fans out to every connected stream.
	engine.Subscribe(s.dispatch)

	s.mux.HandleFunc("POST /1.1/statuses/filter.json", s.handleFilter)
	s.mux.HandleFunc("GET /1.1/users/show.json", s.observed("users/show", s.rateLimited("users/show", s.handleUserShow)))
	s.mux.HandleFunc("GET /1.1/users/lookup.json", s.observed("users/lookup", s.rateLimited("users/lookup", s.handleUserLookup)))
	search := s.observed("users/search", s.rateLimited("users/search", s.handleUserSearch))
	s.mux.HandleFunc("GET /1.1/users/search.json", search)
	s.mux.HandleFunc("POST /1.1/users/search.json", search)
	s.mux.HandleFunc("GET /1.1/trends.json", s.observed("trends", s.rateLimited("trends", s.handleTrends)))
	s.mux.HandleFunc("POST /sim/advance.json", s.observed("sim/advance", s.handleAdvance))
	s.mux.HandleFunc("GET /sim/stats.json", s.observed("sim/stats", s.handleStats))
	s.mux.Handle("GET /metrics", s.reg.Handler())
	s.mux.Handle("GET /healthz", metrics.HealthHandlerFunc(s.healthExtras...))
	if s.tracer != nil {
		s.mux.Handle("GET /debug/traces", s.tracer.Handler())
		s.mux.Handle("GET /debug/traces/{id}", s.tracer.Handler())
	}
	if s.pprof {
		mountPprof(s.mux)
	}
	return s
}

// mountPprof attaches the net/http/pprof handlers, which register on
// http.DefaultServeMux only, to an explicit mux.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Advance runs n simulated hours. After each hour, every open stream gets
// a control line (HourEnd) behind that hour's tweets. Safe for concurrent
// use.
func (s *Server) Advance(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < n; i++ {
		s.engine.RunHours(1)
		s.streamsMu.Lock()
		for _, st := range s.streams {
			st.endHour(s.engine.Hour() - 1)
		}
		s.streamsMu.Unlock()
	}
	if s.advanceHook != nil {
		s.advanceHook(n)
	}
}

// dispatch fans a generated tweet out to connected streams, encoding it
// once for all of them. It runs inside the engine's RunHours (under s.mu),
// so the wire form captures the profiles as they are at tweet time.
func (s *Server) dispatch(t *socialnet.Tweet) {
	s.streamsMu.Lock()
	defer s.streamsMu.Unlock()
	var line []byte
	for _, st := range s.streams {
		if !st.wants(t) {
			continue
		}
		if line == nil {
			line = encodeLine(encodeTweet(t, s.engine.World().Account, s.oracle))
		}
		if st.push(line) {
			s.ins.streamTweets.Inc()
		} else {
			s.ins.streamDropped.Inc()
		}
	}
}

// encodeLine renders a wire value as one NDJSON line. The wire types hold
// nothing encoding/json rejects.
func encodeLine(v any) []byte {
	b, _ := json.Marshal(v)
	return append(b, '\n')
}

func (st *stream) wants(t *socialnet.Tweet) bool {
	if st.all {
		return true
	}
	if _, ok := st.tracked[t.AuthorID]; ok {
		return true
	}
	for _, m := range t.Mentions {
		if _, ok := st.tracked[m]; ok {
			return true
		}
	}
	return false
}

// handleFilter implements POST /1.1/statuses/filter.json. Its parameter
// track lists comma-separated @screen_name filters (mention tracking, as
// the paper configures Tweepy: "@user_account_name"): a tracked account's
// posts and every post mentioning it are delivered. Like Twitter's keyword
// track, a name tracks every account holding it, since screen names are
// not unique. Without track the full firehose is delivered. The response
// is an unbounded NDJSON stream.
func (s *Server) handleFilter(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseForm(); err != nil {
		writeErr(w, http.StatusBadRequest, "bad form: "+err.Error())
		return
	}
	track := r.Form.Get("track")
	st := &stream{
		tracked: make(map[socialnet.AccountID]struct{}),
		all:     track == "",
		wake:    make(chan struct{}, 1),
	}
	names := make(map[string]struct{})
	for _, name := range splitNonEmpty(track) {
		names[strings.TrimPrefix(strings.TrimSpace(name), "@")] = struct{}{}
	}
	s.mu.Lock()
	for _, a := range s.engine.World().Accounts() {
		if _, ok := names[a.ScreenName]; ok {
			st.tracked[a.ID] = struct{}{}
		}
	}
	s.mu.Unlock()

	s.streamsMu.Lock()
	id := s.nextID
	s.nextID++
	s.streams[id] = st
	s.streamsMu.Unlock()
	s.ins.streams.Add(1)
	defer func() {
		s.ins.streams.Add(-1)
		s.streamsMu.Lock()
		delete(s.streams, id)
		s.streamsMu.Unlock()
	}()

	// The stream is registered: flush the headers now, so the client's
	// request returns before any tweet matches and it may safely advance.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-st.wake:
		}
		for _, line := range st.take() {
			if _, err := w.Write(line); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleUserShow implements GET /1.1/users/show.json with screen_name or
// user_id.
func (s *Server) handleUserShow(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	world := s.engine.World()
	var a *socialnet.Account
	if name := r.URL.Query().Get("screen_name"); name != "" {
		a = world.ByScreenName(strings.TrimPrefix(name, "@"))
	} else if idStr := r.URL.Query().Get("user_id"); idStr != "" {
		id, err := strconv.ParseInt(idStr, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad user_id")
			return
		}
		a = world.Account(socialnet.AccountID(id))
	}
	if a == nil {
		writeErr(w, http.StatusNotFound, "user not found")
		return
	}
	writeJSON(w, encodeUser(a))
}

// handleUserLookup implements GET /1.1/users/lookup.json?user_id=1,2,3.
// Unknown ids are skipped, as in the real API.
func (s *Server) handleUserLookup(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	world := s.engine.World()
	var users []User
	for _, idStr := range splitNonEmpty(r.URL.Query().Get("user_id")) {
		id, err := strconv.ParseInt(strings.TrimSpace(idStr), 10, 64)
		if err != nil {
			continue
		}
		if a := world.Account(socialnet.AccountID(id)); a != nil {
			users = append(users, encodeUser(a))
		}
	}
	writeJSON(w, users)
}

// handleUserSearch implements GET or POST /1.1/users/search.json — the
// idealized account-screening endpoint (DESIGN.md §2). Parameters, in the
// query string or a form body:
//
//	attr:      attribute key (socialnet.Attribute.Key)
//	value:     numeric sample value (profile attributes)
//	category:  hashtag category name (attr=hashtag)
//	trend:     trend state name (attr=trend)
//	count:     number of accounts
//	tolerance: relative band (optional)
//	active:    1 to require Active status
//	max_ratio: friend/follower ratio bound (optional)
//	exclude:   comma-separated account ids never to return (optional)
//
// The ratio bound and the exclusions apply before sampling, exactly as
// World.Screen applies them in-process, so a server seeded like an
// in-process screener selects the same accounts.
func (s *Server) handleUserSearch(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseForm(); err != nil {
		writeErr(w, http.StatusBadRequest, "bad form: "+err.Error())
		return
	}
	q := r.Form
	attr, err := socialnet.ParseAttribute(q.Get("attr"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	count, err := strconv.Atoi(q.Get("count"))
	if err != nil || count <= 0 {
		writeErr(w, http.StatusBadRequest, "bad count")
		return
	}
	sel := socialnet.Selector{Attr: attr}
	switch attr {
	case socialnet.AttrHashtag:
		sel.Category, err = parseCategory(q.Get("category"))
	case socialnet.AttrTrend:
		sel.Trend, err = parseTrend(q.Get("trend"))
	case socialnet.AttrRandom:
	default:
		sel.Value, err = strconv.ParseFloat(q.Get("value"), 64)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	query := socialnet.ScreenQuery{
		Selector:   sel,
		Count:      count,
		ActiveOnly: q.Get("active") == "1",
	}
	if tol := q.Get("tolerance"); tol != "" {
		query.Tolerance, err = strconv.ParseFloat(tol, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad tolerance")
			return
		}
	}
	if ratio := q.Get("max_ratio"); ratio != "" {
		query.MaxFriendFollowerRatio, err = strconv.ParseFloat(ratio, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad max_ratio")
			return
		}
	}
	if ex := splitNonEmpty(q.Get("exclude")); len(ex) > 0 {
		query.Exclude = make(map[socialnet.AccountID]struct{}, len(ex))
		for _, idStr := range ex {
			id, err := strconv.ParseInt(strings.TrimSpace(idStr), 10, 64)
			if err != nil {
				writeErr(w, http.StatusBadRequest, "bad exclude id")
				return
			}
			query.Exclude[socialnet.AccountID(id)] = struct{}{}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	matches := s.engine.World().Screen(query, s.engine.Now(), s.rng)
	users := make([]User, 0, len(matches))
	for _, a := range matches {
		users = append(users, encodeUser(a))
	}
	writeJSON(w, users)
}

// handleTrends implements GET /1.1/trends.json?state=...
func (s *Server) handleTrends(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stateName := r.URL.Query().Get("state")
	var trends []Trend
	for _, topic := range s.engine.World().Trends().Topics() {
		if stateName != "" && trendName(topic.State) != stateName {
			continue
		}
		trends = append(trends, Trend{
			Name:   topic.Name,
			State:  trendName(topic.State),
			Volume: topic.Volume,
		})
	}
	writeJSON(w, trends)
}

// handleAdvance implements POST /sim/advance.json?hours=N.
func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	hours, err := strconv.Atoi(r.URL.Query().Get("hours"))
	if err != nil || hours <= 0 || hours > 10000 {
		writeErr(w, http.StatusBadRequest, "bad hours")
		return
	}
	s.Advance(hours)
	s.writeStats(w)
}

// handleStats implements GET /sim/stats.json.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeStats(w)
}

func (s *Server) writeStats(w http.ResponseWriter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stats := s.engine.Stats()
	writeJSON(w, SimStats{
		Hours:         stats.Hours,
		TweetsTotal:   stats.TweetsTotal,
		MentionTweets: stats.MentionTweets,
		Suspensions:   stats.Suspensions,
		Now:           s.engine.Now().Format(time.RFC3339),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Connection-level failure; nothing else to do.
		return
	}
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(APIError{Code: code, Message: msg})
}

func splitNonEmpty(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if strings.TrimSpace(p) != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseCategory(name string) (socialnet.HashtagCategory, error) {
	if name == socialnet.HashtagNone.String() {
		return socialnet.HashtagNone, nil
	}
	for _, c := range socialnet.HashtagCategories {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("twitterapi: unknown hashtag category %q", name)
}

func parseTrend(name string) (socialnet.TrendState, error) {
	for _, s := range socialnet.TrendStates {
		if trendName(s) == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("twitterapi: unknown trend state %q", name)
}

// trendName is the wire name of a trend state (hyphenated, no spaces).
func trendName(s socialnet.TrendState) string {
	return strings.ReplaceAll(s.String(), " ", "-")
}
