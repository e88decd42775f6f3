package twitterapi

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// remoteScreen is Client.Screen as the monitor's Screener, failures
// screening nothing.
type remoteScreen struct{ *Client }

var _ core.Screener = remoteScreen{}

func (s remoteScreen) Screen(q socialnet.ScreenQuery, _ time.Time) []*socialnet.Account {
	got, _ := s.Client.Screen(context.Background(), q)
	return got
}

func TestRemoteScreenerFindsAccounts(t *testing.T) {
	_, client := newTestServer(t)
	s := remoteScreen{client}
	got := s.Screen(socialnet.ScreenQuery{
		Selector: socialnet.Selector{Attr: socialnet.AttrFollowers, Value: 1000},
		Count:    5,
	}, time.Now())
	if len(got) == 0 {
		t.Fatal("remote screener found nothing")
	}
	for _, a := range got {
		if a.FollowersCount < 650 || a.FollowersCount > 1350 {
			t.Fatalf("account followers %d outside band", a.FollowersCount)
		}
		if a.Kind != socialnet.KindNormal || a.CampaignID != socialnet.NoCampaign {
			t.Fatal("ground truth leaked through the wire")
		}
	}
}

// TestRemoteScreenerExcludes: the server applies the exclusions and the
// ratio bound before it samples, as World.Screen does in-process, so a
// server seeded like an in-process screener returns exactly the accounts
// that screener selects — never an excluded one, and never a short batch
// that only filtering after sampling would leave.
func TestRemoteScreenerExcludes(t *testing.T) {
	_, client := newTestServer(t, WithSeed(7))
	s := remoteScreen{client}

	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 1500
	cfg.OrganicTweetsPerHour = 300
	local, err := socialnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	now := socialnet.NewEngine(local).Now()

	exclude := &socialnet.AccountSet{}
	for i, a := range local.Accounts() {
		if i%2 == 0 {
			exclude.Add(a.ID)
		}
	}
	for _, q := range []socialnet.ScreenQuery{
		{Selector: socialnet.Selector{Attr: socialnet.AttrRandom}, Count: 40, Exclude: exclude},
		{Selector: socialnet.Selector{Attr: socialnet.AttrFollowers, Value: 1000}, Count: 20,
			Exclude: exclude, MaxFriendFollowerRatio: 2},
	} {
		want := local.Screen(q, now, rng)
		got := s.Screen(q, now)
		if len(got) != q.Count || len(got) != len(want) {
			t.Fatalf("%v: remote screened %d, in-process %d, want %d", q.Selector, len(got), len(want), q.Count)
		}
		for i, a := range got {
			if exclude.Has(a.ID) {
				t.Fatalf("%v: excluded account %d returned", q.Selector, a.ID)
			}
			if q.MaxFriendFollowerRatio > 0 && a.FriendFollowerRatio() > q.MaxFriendFollowerRatio {
				t.Fatalf("%v: account %d over the ratio bound", q.Selector, a.ID)
			}
			if a.ID != want[i].ID {
				t.Fatalf("%v: account %d is %d remotely, %d in-process", q.Selector, i, a.ID, want[i].ID)
			}
		}
	}
}

// A core.Monitor driven entirely through the HTTP API: remote selection
// plus remote streaming, end to end.
func TestMonitorOverRemoteAPI(t *testing.T) {
	srv, client := newTestServer(t)
	m := core.NewMonitor(core.MonitorConfig{
		Specs: core.RandomSpec(60),
		Seed:  1,
	}, remoteScreen{client})

	m.Rotate(time.Now(), time.Hour)
	if len(m.CurrentNodes()) == 0 {
		t.Fatal("remote rotation selected nothing")
	}

	// Feed the monitor from the server's engine via the wire decode path.
	srv.mu.Lock()
	world := srv.engine.World()
	srv.mu.Unlock()
	lookup := func(id socialnet.AccountID) *socialnet.Account {
		return world.Account(id)
	}
	srv.mu.Lock()
	cancel := srv.engine.Subscribe(func(tw *socialnet.Tweet) {
		m.OnTweet(tw, lookup)
	})
	srv.mu.Unlock()
	defer cancel()

	srv.Advance(3)
	if len(m.Captures()) == 0 {
		t.Fatal("no captures through remote-selected nodes")
	}
}

func TestDecodeUser(t *testing.T) {
	now := time.Now().UTC().Truncate(time.Second)
	u := &User{
		ID: 42, ScreenName: "x", Name: "X", Description: "d",
		CreatedAt: now.Format(time.RFC3339), FriendsCount: 1,
		FollowersCount: 2, ListedCount: 3, FavouritesCount: 4,
		StatusesCount: 5, Verified: true, DefaultProfile: true,
		Suspended: true,
	}
	a := DecodeUser(u)
	if a.ID != 42 || !a.CreatedAt.Equal(now) || a.FriendsCount != 1 ||
		a.FollowersCount != 2 || !a.Verified || !a.DefaultProfileImage ||
		!a.Suspended {
		t.Fatalf("decode mismatch: %+v", a)
	}
	if DecodeUser(nil) != nil {
		t.Fatal("nil decode")
	}
	// Bad timestamp degrades to zero time, not an error.
	u.CreatedAt = "garbage"
	if a := DecodeUser(u); !a.CreatedAt.IsZero() {
		t.Fatal("bad timestamp not zeroed")
	}
}

func TestDecodeTweetRoundTrip(t *testing.T) {
	srv, client := newTestServer(t, WithOracle())
	_ = client
	world := srv.engine.World()
	author := world.Accounts()[0]
	target := world.Accounts()[1]
	orig := &socialnet.Tweet{
		ID: 9, AuthorID: author.ID, CreatedAt: time.Now().UTC(),
		Kind: socialnet.KindQuote, Source: socialnet.SourceThirdParty,
		Text: "hello @x", Hashtags: []string{"h"},
		Mentions: []socialnet.AccountID{target.ID},
		URLs:     []string{"http://u"}, Topic: "topic",
		Spam: true, CampaignID: 3,
	}
	wire := encodeTweet(orig, world.Account, true)
	decoded, sender := DecodeTweet(&wire)
	if decoded.ID != orig.ID || decoded.AuthorID != orig.AuthorID ||
		decoded.Kind != orig.Kind || decoded.Source != orig.Source ||
		decoded.Text != orig.Text || decoded.Topic != orig.Topic {
		t.Fatalf("decode mismatch: %+v", decoded)
	}
	if !decoded.CreatedAt.Equal(orig.CreatedAt) {
		t.Fatalf("timestamp mismatch: %v vs %v", decoded.CreatedAt, orig.CreatedAt)
	}
	if len(decoded.Mentions) != 1 || decoded.Mentions[0] != target.ID {
		t.Fatal("mentions mismatch")
	}
	if !decoded.Spam || decoded.CampaignID != 3 {
		t.Fatal("oracle fields lost")
	}
	if sender == nil || sender.ID != author.ID {
		t.Fatal("sender profile missing")
	}
}

func TestDecodeTweetWithoutOracle(t *testing.T) {
	srv, _ := newTestServer(t)
	world := srv.engine.World()
	orig := &socialnet.Tweet{
		ID: 1, AuthorID: world.Accounts()[0].ID, CreatedAt: time.Now(),
		Kind: socialnet.KindTweet, Source: socialnet.SourceWeb,
		Spam: true, CampaignID: 5,
	}
	wire := encodeTweet(orig, world.Account, false)
	decoded, _ := DecodeTweet(&wire)
	if decoded.Spam || decoded.CampaignID != socialnet.NoCampaign {
		t.Fatal("ground truth leaked without oracle")
	}
}

func TestDecodeTweetNil(t *testing.T) {
	tw, a := DecodeTweet(nil)
	if tw != nil || a != nil {
		t.Fatal("nil decode should be nil")
	}
}

// TestScreenSendsExclusionsInOrder: equal queries send equal bodies, with
// the exclusions in ascending id order.
func TestScreenSendsExclusionsInOrder(t *testing.T) {
	var bodies []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		bodies = append(bodies, string(b))
		w.Write([]byte("[]"))
	}))
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())

	exclude := &socialnet.AccountSet{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		exclude.Add(socialnet.AccountID(1 + rng.Intn(5000)))
	}
	q := socialnet.ScreenQuery{Selector: socialnet.Selector{Attr: socialnet.AttrRandom}, Count: 5, Exclude: exclude}
	for i := 0; i < 2; i++ {
		if _, err := client.Screen(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if len(bodies) != 2 || bodies[0] != bodies[1] {
		t.Fatalf("two equal queries sent %q", bodies)
	}
	form, err := url.ParseQuery(bodies[0])
	if err != nil {
		t.Fatal(err)
	}
	var sent []int64
	for _, f := range strings.Split(form.Get("exclude"), ",") {
		id, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, id)
	}
	want := exclude.AppendIDs(nil)
	if len(sent) != len(want) || !slices.IsSorted(sent) {
		t.Fatalf("sent %d exclusions (ascending %t), want all %d ascending", len(sent), slices.IsSorted(sent), len(want))
	}
}

// TestUserSearchDropsForeignExcludes: users/search drops the exclusion ids
// that name no account of its world — 0, negative, past the last id, in
// another namespace, 1<<62, the largest int64 — so a request carrying
// them answers exactly what it answers without them, and they cost the
// handler no more than their bytes. Twin servers share a seed, so each
// answers its first request from the same rng state.
func TestUserSearchDropsForeignExcludes(t *testing.T) {
	search := func(exclude string) (string, uint64) {
		srv, _ := newTestServer(t, WithSeed(7))
		body := url.Values{"attr": {"random"}, "count": {"40"}, "exclude": {exclude}}.Encode()
		req := httptest.NewRequest(http.MethodPost, "/1.1/users/search.json", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("users/search answered %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.String(), after.TotalAlloc - before.TotalAlloc
	}
	var own []string
	for id := 2; id <= 1500; id += 3 {
		own = append(own, strconv.Itoa(id))
	}
	foreign := []string{"0", "-5", "-9223372036854775808", "1501", "99999",
		"1099511627775", "1099511627778", "4611686018427387904", "9223372036854775807"}
	plain := strings.Join(own, ",")
	mixed := strings.Join(append(foreign[:4:4], append(own, foreign[4:]...)...), ",")

	want, plainBytes := search(plain)
	got, mixedBytes := search(mixed)
	if got != want {
		t.Fatalf("with foreign ids users/search answered\n%s\nwithout them\n%s", got, want)
	}
	var users []User
	if err := json.Unmarshal([]byte(got), &users); err != nil || len(users) != 40 {
		t.Fatalf("answer holds %d users (%v), want 40", len(users), err)
	}
	for _, u := range users {
		if u.ID%3 == 2 {
			t.Fatalf("excluded account %d returned", u.ID)
		}
	}
	if extra := int64(mixedBytes) - int64(plainBytes); extra > 64<<10 {
		t.Fatalf("the foreign ids cost the handler %d more bytes", extra)
	}
}
