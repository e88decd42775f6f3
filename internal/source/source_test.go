package source

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/store"
)

// fakeSource is a scripted Source for mux tests: per-hour tweet batches
// over a tiny account table.
type fakeSource struct {
	id       string
	hooks    []func(int, time.Time)
	subs     []func(Post)
	hours    [][]*socialnet.Tweet
	accounts map[socialnet.AccountID]*socialnet.Account
	hour     int
	start    time.Time
	closeErr error
	closed   bool
}

func (f *fakeSource) ID() string { return f.id }
func (f *fakeSource) OnHourStart(fn func(int, time.Time)) {
	f.hooks = append(f.hooks, fn)
}
func (f *fakeSource) Subscribe(fn func(Post)) func() {
	f.subs = append(f.subs, fn)
	i := len(f.subs) - 1
	return func() { f.subs[i] = nil }
}
func (f *fakeSource) RunHours(n int) error {
	for i := 0; i < n; i++ {
		for _, fn := range f.hooks {
			fn(f.hour, f.Now())
		}
		if f.hour < len(f.hours) {
			for _, t := range f.hours[f.hour] {
				for _, fn := range f.subs {
					if fn != nil {
						fn(Post{Tweet: t, Origin: f.id})
					}
				}
			}
		}
		f.hour++
	}
	return nil
}
func (f *fakeSource) Lookup(id socialnet.AccountID) *socialnet.Account { return f.accounts[id] }
func (f *fakeSource) Now() time.Time {
	return f.start.Add(time.Duration(f.hour) * time.Hour)
}
func (f *fakeSource) Rotation(int) []int { return nil }
func (f *fakeSource) Close() error {
	f.closed = true
	return f.closeErr
}

var t0 = time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)

func tweetAt(id socialnet.TweetID, author socialnet.AccountID, at time.Time, mentions ...socialnet.AccountID) *socialnet.Tweet {
	return &socialnet.Tweet{ID: id, AuthorID: author, CreatedAt: at, Mentions: mentions}
}

func TestMuxMergesByTimeChildAndID(t *testing.T) {
	a := &fakeSource{id: "a", start: t0, hours: [][]*socialnet.Tweet{{
		tweetAt(10, 1, t0.Add(2*time.Minute)),
		tweetAt(11, 2, t0.Add(4*time.Minute)),
	}}}
	b := &fakeSource{id: "b", start: t0, hours: [][]*socialnet.Tweet{{
		tweetAt(5, 3, t0.Add(2*time.Minute), 7),
		tweetAt(6, 4, t0.Add(3*time.Minute)),
	}}}
	m := NewMux(a, b)
	var got []Post
	m.Subscribe(func(p Post) { got = append(got, p) })
	if err := m.RunHours(1); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("delivered %d posts, want 4", len(got))
	}
	off := int64(1) << nsShift
	wantIDs := []socialnet.TweetID{10, socialnet.TweetID(off) + 5, socialnet.TweetID(off) + 6, 11}
	for i, p := range got {
		if p.Tweet.ID != wantIDs[i] {
			t.Errorf("post %d id %d, want %d", i, p.Tweet.ID, wantIDs[i])
		}
	}
	// Child 0 posts pass through untouched (same pointer, zero overhead).
	if got[0].Tweet != a.hours[0][0] {
		t.Error("child 0 tweet was copied; want identity pass-through")
	}
	// Child 1 posts are deep-copied with namespaced author and mentions.
	xb := got[1]
	if xb.Tweet == b.hours[0][0] {
		t.Error("child 1 tweet shared with child; want a namespaced clone")
	}
	if want := socialnet.AccountID(off) + 3; xb.Tweet.AuthorID != want {
		t.Errorf("child 1 author %d, want %d", xb.Tweet.AuthorID, want)
	}
	if want := socialnet.AccountID(off) + 7; xb.Tweet.Mentions[0] != want {
		t.Errorf("child 1 mention %d, want %d", xb.Tweet.Mentions[0], want)
	}
	if b.hours[0][0].AuthorID != 3 {
		t.Error("namespacing mutated the child's own tweet")
	}
	if p := got[1]; p.Origin != "b" {
		t.Errorf("origin %q, want the child id", p.Origin)
	}
}

func TestMuxHoursAndNow(t *testing.T) {
	a := &fakeSource{id: "a", start: t0}
	b := &fakeSource{id: "b", start: t0}
	m := NewMux(a, b)
	var hooks []int
	m.OnHourStart(func(hour int, now time.Time) {
		hooks = append(hooks, hour)
		if want := t0.Add(time.Duration(hour) * time.Hour); !now.Equal(want) {
			t.Errorf("hook hour %d now %v, want %v", hour, now, want)
		}
	})
	if err := m.RunHours(3); err != nil {
		t.Fatal(err)
	}
	if len(hooks) != 3 || hooks[0] != 0 || hooks[2] != 2 {
		t.Fatalf("hour hooks %v, want [0 1 2]", hooks)
	}
	if !m.Now().Equal(t0.Add(3 * time.Hour)) {
		t.Errorf("Now %v, want %v", m.Now(), t0.Add(3*time.Hour))
	}
	if m.ID() != "mux" {
		t.Errorf("ID %q", m.ID())
	}
	if m.Rotation(0) != nil {
		t.Error("mux Rotation should be nil (live children rotate)")
	}
}

func TestMuxSubscribeCancel(t *testing.T) {
	a := &fakeSource{id: "a", start: t0, hours: [][]*socialnet.Tweet{
		{tweetAt(1, 1, t0.Add(time.Minute))},
		{tweetAt(2, 1, t0.Add(61*time.Minute))},
	}}
	m := NewMux(a)
	n := 0
	cancel := m.Subscribe(func(Post) { n++ })
	if err := m.RunHours(1); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := m.RunHours(1); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("subscriber saw %d posts after cancel, want 1", n)
	}
}

func TestMuxLookupRoutesAndSnapshotsWrappers(t *testing.T) {
	acctA := &socialnet.Account{ID: 1, ScreenName: "a1"}
	acctB := &socialnet.Account{ID: 1, ScreenName: "b1"}
	a := &fakeSource{id: "a", start: t0, accounts: map[socialnet.AccountID]*socialnet.Account{1: acctA}}
	b := &fakeSource{id: "b", start: t0, accounts: map[socialnet.AccountID]*socialnet.Account{1: acctB}}
	m := NewMux(a, b)

	if got := m.Lookup(1); got != acctA {
		t.Errorf("child 0 lookup returned %v, want the live account", got)
	}
	nsID := socialnet.AccountID(int64(1)<<nsShift) + 1
	w := m.Lookup(nsID)
	if w == nil || w.ScreenName != "b1" || w.ID != nsID {
		t.Fatalf("child 1 lookup = %+v, want wrapper of b1 with namespaced id", w)
	}
	// Each call re-reads the child's current profile state into a fresh
	// copy: looked-up accounts travel with captures into concurrent
	// pipeline stages, so a shared wrapper mutated on later lookups
	// would race with those readers. The earlier wrapper must keep the
	// state it was read with.
	acctB.Suspended = true
	w2 := m.Lookup(nsID)
	if w2 == w {
		t.Error("wrapper shared across lookups; later refreshes would race with pipeline readers")
	}
	if !w2.Suspended {
		t.Error("lookup did not observe the child's current profile state")
	}
	if w.Suspended {
		t.Error("earlier wrapper mutated after it escaped")
	}
	if m.Lookup(socialnet.AccountID(int64(5)<<nsShift)) != nil {
		t.Error("out-of-range child lookup should be nil")
	}
	if m.Lookup(socialnet.AccountID(int64(1)<<nsShift)+99) != nil {
		t.Error("unknown account lookup should be nil")
	}
}

func TestMuxCloseJoinsChildErrors(t *testing.T) {
	a := &fakeSource{id: "a", closeErr: errors.New("a failed")}
	b := &fakeSource{id: "b"}
	c := &fakeSource{id: "c", closeErr: errors.New("c failed")}
	m := NewMux(a, b, c)
	err := m.Close()
	if err == nil || !strings.Contains(err.Error(), "a failed") || !strings.Contains(err.Error(), "c failed") {
		t.Fatalf("Close error %v, want both child errors", err)
	}
	if !a.closed || !b.closed || !c.closed {
		t.Error("Close skipped a child")
	}
}

// fakeScreener returns its fixed candidate list minus exclusions.
type fakeScreener struct {
	candidates []*socialnet.Account
	lastCount  int
}

func (f *fakeScreener) Screen(q socialnet.ScreenQuery, _ time.Time) []*socialnet.Account {
	f.lastCount = q.Count
	var out []*socialnet.Account
	for _, a := range f.candidates {
		if _, ex := q.Exclude[a.ID]; ex {
			continue
		}
		if len(out) == q.Count {
			break
		}
		out = append(out, a)
	}
	return out
}

// screeningFake wraps fakeSource with a Screening capability.
type screeningFake struct {
	fakeSource
	scr *fakeScreener
}

func (s *screeningFake) NewScreener(int64) core.Screener { return s.scr }

func TestMuxScreenerSplitsBudget(t *testing.T) {
	accts := func(ids ...socialnet.AccountID) []*socialnet.Account {
		out := make([]*socialnet.Account, len(ids))
		for i, id := range ids {
			out[i] = &socialnet.Account{ID: id}
		}
		return out
	}
	a := &screeningFake{fakeSource: fakeSource{id: "a", start: t0}, scr: &fakeScreener{candidates: accts(1, 2, 3)}}
	b := &screeningFake{fakeSource: fakeSource{id: "b", start: t0}, scr: &fakeScreener{candidates: accts(1, 2, 3)}}
	m := NewMux(a, b)
	scr := m.NewScreener(7)

	off := socialnet.AccountID(int64(1) << nsShift)
	got := scr.Screen(socialnet.ScreenQuery{
		Count: 5,
		// Exclude child 0's account 1 and child 1's (namespaced) account 2.
		Exclude: map[socialnet.AccountID]struct{}{
			1:       {},
			off + 2: {},
		},
	}, t0)
	// 5 splits 3 (child 0) + 2 (child 1); exclusions apply per child.
	if a.scr.lastCount != 3 || b.scr.lastCount != 2 {
		t.Fatalf("budget split %d/%d, want 3/2", a.scr.lastCount, b.scr.lastCount)
	}
	var ids []socialnet.AccountID
	for _, acct := range got {
		ids = append(ids, acct.ID)
	}
	want := []socialnet.AccountID{2, 3, off + 1, off + 3}
	if len(ids) != len(want) {
		t.Fatalf("screened ids %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("screened ids %v, want %v", ids, want)
		}
	}
}

func TestMuxScreenerNoScreenableChildren(t *testing.T) {
	m := NewMux(&fakeSource{id: "a", start: t0})
	if got := m.NewScreener(1).Screen(socialnet.ScreenQuery{Count: 4}, t0); got != nil {
		t.Fatalf("screener over unscreenable children returned %v", got)
	}
}

func TestNullScreener(t *testing.T) {
	if got := (NullScreener{}).Screen(socialnet.ScreenQuery{Count: 3}, t0); got != nil {
		t.Fatalf("NullScreener returned %v", got)
	}
}

func smallWorldConfig(seed int64) socialnet.Config {
	cfg := socialnet.DefaultConfig()
	cfg.Seed = seed
	cfg.NumAccounts = 500
	cfg.OrganicTweetsPerHour = 120
	return cfg
}

func TestTwitterSourceDelegatesToEngine(t *testing.T) {
	w, err := socialnet.NewWorld(smallWorldConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	e := socialnet.NewEngine(w)
	s := NewTwitter(w, e)
	if s.ID() != "twitter" {
		t.Errorf("ID %q", s.ID())
	}
	hooks := 0
	s.OnHourStart(func(int, time.Time) { hooks++ })
	var posts []Post
	cancel := s.Subscribe(func(p Post) { posts = append(posts, p) })
	before := s.Now()
	if err := s.RunHours(2); err != nil {
		t.Fatal(err)
	}
	if hooks != 2 {
		t.Errorf("hour hooks fired %d times, want 2", hooks)
	}
	if len(posts) == 0 {
		t.Fatal("no posts delivered")
	}
	for _, p := range posts[:5] {
		if p.Origin != "twitter" || p.Replay != nil {
			t.Fatalf("post %+v, want live twitter origin", p)
		}
	}
	if a := s.Lookup(posts[0].Tweet.AuthorID); a == nil {
		t.Error("Lookup missed a post author")
	}
	if !s.Now().After(before) {
		t.Error("Now did not advance")
	}
	if s.Rotation(0) != nil {
		t.Error("live source Rotation should be nil")
	}
	if s.NewScreener(1) == nil {
		t.Error("nil screener")
	}
	if s.World() != w {
		t.Error("World accessor")
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
	n := len(posts)
	cancel()
	if err := s.RunHours(1); err != nil {
		t.Fatal(err)
	}
	if len(posts) != n {
		t.Error("cancel did not stop delivery")
	}
}

func redditPosts(t *testing.T, cfg RedditConfig, hours, extraSubs int) []Post {
	t.Helper()
	r, err := NewReddit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var posts []Post
	r.Subscribe(func(p Post) { posts = append(posts, p) })
	for i := 0; i < extraSubs; i++ {
		r.Subscribe(func(Post) {})
	}
	if err := r.RunHours(hours); err != nil {
		t.Fatal(err)
	}
	return posts
}

func TestRedditSourceShape(t *testing.T) {
	cfg := RedditConfig{World: smallWorldConfig(5)}
	posts := redditPosts(t, cfg, 3, 0)
	if len(posts) == 0 {
		t.Fatal("no posts")
	}
	crossposts := 0
	for _, p := range posts {
		if p.Origin != "reddit" || p.Replay != nil {
			t.Fatalf("post %+v, want live reddit origin", p)
		}
		if !strings.HasPrefix(p.Tweet.Text, "r/") {
			t.Fatalf("post text %q missing community marker", p.Tweet.Text)
		}
		if p.Tweet.ID >= xpostBase {
			crossposts++
			if !p.Tweet.Spam {
				t.Error("crosspost of a non-spam post")
			}
			if !strings.HasPrefix(p.Tweet.Text, "r/crossposts [x-post] ") {
				t.Errorf("crosspost text %q", p.Tweet.Text)
			}
		}
	}
	if crossposts == 0 {
		t.Error("no crossposts at the default fraction")
	}
	// Crossposts stay below the mux namespace stride so muxed reddit
	// streams still route.
	if xpostBase >= 1<<nsShift {
		t.Error("crosspost id block overlaps the mux namespace stride")
	}
	r, err := NewReddit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID() != "reddit" {
		t.Errorf("ID %q", r.ID())
	}
	if r.Rotation(0) != nil {
		t.Error("live source Rotation should be nil")
	}
	if r.NewScreener(1) == nil {
		t.Error("nil screener")
	}
	if r.World() == nil {
		t.Error("World accessor")
	}
	hooks := 0
	r.OnHourStart(func(int, time.Time) { hooks++ })
	if err := r.RunHours(1); err != nil {
		t.Fatal(err)
	}
	if hooks != 1 {
		t.Errorf("hooks %d", hooks)
	}
	if a := r.Lookup(1); a == nil {
		t.Error("Lookup missed account 1")
	}
}

func TestRedditSourceDeterministicAndSubscriberInvariant(t *testing.T) {
	cfg := RedditConfig{World: smallWorldConfig(5)}
	one := redditPosts(t, cfg, 2, 0)
	two := redditPosts(t, cfg, 2, 3) // extra subscribers must not shift rng draws
	if len(one) != len(two) {
		t.Fatalf("streams differ in length: %d vs %d", len(one), len(two))
	}
	for i := range one {
		a, b := one[i].Tweet, two[i].Tweet
		if a.ID != b.ID || a.Text != b.Text || !a.CreatedAt.Equal(b.CreatedAt) {
			t.Fatalf("post %d differs: %v vs %v", i, a, b)
		}
	}
}

func TestRedditCrosspostFraction(t *testing.T) {
	// Negative disables crossposting entirely.
	cfg := RedditConfig{World: smallWorldConfig(5), CrosspostFraction: -1}
	for _, p := range redditPosts(t, cfg, 3, 0) {
		if p.Tweet.ID >= xpostBase {
			t.Fatal("crosspost delivered with crossposting disabled")
		}
	}
	if _, err := NewReddit(RedditConfig{World: smallWorldConfig(5), CrosspostFraction: 1.5}); err == nil {
		t.Fatal("CrosspostFraction > 1 accepted")
	}
	// Default world: zero World config takes the socialnet default with
	// the seed applied.
	r, err := NewReddit(RedditConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if r.World() == nil {
		t.Fatal("default world missing")
	}
	_ = r.Close()
}

// writeRecording builds a two-hour WAL with rotation records, three
// captures, and a profile epilogue.
func writeRecording(t *testing.T, dir string) {
	t.Helper()
	st, _, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sender := &socialnet.Account{ID: 11, ScreenName: "sender", Kind: socialnet.KindSpammer}
	recv := &socialnet.Account{ID: 21, ScreenName: "node"}
	if err := st.AppendRotation(&store.RotationRecord{Hour: 0, Now: t0, Counts: []int{2, 1}}); err != nil {
		t.Fatal(err)
	}
	caps := []*store.CaptureRecord{
		{Tweet: socialnet.Tweet{ID: 100, AuthorID: 11, CreatedAt: t0.Add(10 * time.Minute), Mentions: []socialnet.AccountID{21}},
			Sender: sender, Receiver: recv, Groups: []int{0}, Src: "twitter"},
		{Tweet: socialnet.Tweet{ID: 101, AuthorID: 11, CreatedAt: t0.Add(70 * time.Minute), Mentions: []socialnet.AccountID{21}},
			Sender: sender, Receiver: recv, Groups: []int{0, 1}, Src: "twitter"},
		{Tweet: socialnet.Tweet{ID: 102, AuthorID: 11, CreatedAt: t0.Add(80 * time.Minute)},
			Sender: sender, Groups: []int{1}, Src: "twitter"},
	}
	if err := st.AppendCapture(caps[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendRotation(&store.RotationRecord{Hour: 1, Now: t0.Add(time.Hour), Counts: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range caps[1:] {
		if err := st.AppendCapture(c); err != nil {
			t.Fatal(err)
		}
	}
	// Epilogue: the sender ended the run suspended.
	final := *sender
	final.Suspended = true
	if err := st.AppendProfiles([]*socialnet.Account{&final, recv}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func openReplay(t *testing.T, dir string) *ReplaySource {
	t.Helper()
	b, err := store.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplay(b)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestReplaySourceDelivery(t *testing.T) {
	dir := t.TempDir()
	writeRecording(t, dir)
	r := openReplay(t, dir)
	if r.ID() != "replay" || !r.ReplayBacked() {
		t.Error("identity")
	}
	if r.Hours() != 2 {
		t.Fatalf("Hours %d, want 2", r.Hours())
	}
	var events []string
	r.OnHourStart(func(hour int, now time.Time) {
		events = append(events, "hour")
		if want := t0.Add(time.Duration(hour) * time.Hour); !now.Equal(want) {
			t.Errorf("hook hour %d at %v, want %v", hour, now, want)
		}
	})
	var posts []Post
	r.Subscribe(func(p Post) {
		events = append(events, "post")
		posts = append(posts, p)
	})
	if err := r.RunHours(1); err != nil {
		t.Fatal(err)
	}
	if len(posts) != 1 || posts[0].Tweet.ID != 100 {
		t.Fatalf("hour 0 delivered %d posts, want tweet 100", len(posts))
	}
	p := posts[0]
	if p.Origin != "replay" || p.Replay == nil {
		t.Fatalf("post %+v, want replay context", p)
	}
	if p.Replay.Sender.ID != 11 || p.Replay.Receiver.ID != 21 || len(p.Replay.Groups) != 1 {
		t.Fatalf("replay context %+v", p.Replay)
	}
	if !r.Now().Equal(t0.Add(10 * time.Minute)) {
		t.Errorf("Now %v, want the last capture's time", r.Now())
	}
	// Remaining hours plus overshoot: stops silently at recording end.
	if err := r.RunHours(5); err != nil {
		t.Fatal(err)
	}
	if len(posts) != 3 {
		t.Fatalf("total posts %d, want 3", len(posts))
	}
	if got := len(events); events[0] != "hour" || got != 5 {
		t.Fatalf("events %v, want hooks before posts", events)
	}
	if c := r.Rotation(1); len(c) != 2 || c[0] != 1 || c[1] != 2 {
		t.Fatalf("Rotation(1) = %v", c)
	}
	if r.Rotation(7) != nil {
		t.Error("unrecorded hour should have nil counts")
	}
	// Lookup prefers the epilogue (final suspension state) over the
	// match-time snapshot.
	if a := r.Lookup(11); a == nil || !a.Suspended {
		t.Fatalf("Lookup(11) = %+v, want the suspended epilogue profile", a)
	}
	if a := r.Lookup(21); a == nil {
		t.Fatal("Lookup(21) missed")
	}
	if r.Lookup(99) != nil {
		t.Error("unknown id should be nil")
	}
	if err := r.Close(); err != nil {
		t.Error(err)
	}
}

func TestReplaySnapshotFallbackWithoutEpilogue(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendRotation(&store.RotationRecord{Hour: 0, Now: t0, Counts: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendCapture(&store.CaptureRecord{
		Tweet:  socialnet.Tweet{ID: 1, AuthorID: 11, CreatedAt: t0.Add(time.Minute)},
		Sender: &socialnet.Account{ID: 11, ScreenName: "snap"},
		Groups: []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	r := openReplay(t, dir)
	if a := r.Lookup(11); a == nil || a.ScreenName != "snap" {
		t.Fatalf("Lookup(11) = %+v, want the match-time snapshot fallback", a)
	}
}

func TestReplayRequiresRotations(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendCapture(&store.CaptureRecord{
		Tweet: socialnet.Tweet{ID: 1, AuthorID: 2, CreatedAt: t0},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := store.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReplay(b); err == nil || !strings.Contains(err.Error(), "no rotation records") {
		t.Fatalf("err %v, want rotation-records error", err)
	}
}

func TestReplayRejectsDuplicateHour(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := st.AppendRotation(&store.RotationRecord{Hour: 0, Now: t0, Counts: []int{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := store.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReplay(b); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("err %v, want duplicate-hour error", err)
	}
}
