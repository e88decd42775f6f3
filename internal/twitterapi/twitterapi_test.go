package twitterapi

import (
	"context"
	"errors"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

func newTestServer(t *testing.T, opts ...ServerOption) (*Server, *Client) {
	t.Helper()
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 1500
	cfg.OrganicTweetsPerHour = 300
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(socialnet.NewEngine(w), opts...)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL, ts.Client())
}

// userShow fetches GET /1.1/users/show.json with the given parameters.
func userShow(client *Client, vals url.Values) (*User, error) {
	var u User
	if err := client.getJSON(context.Background(), "/1.1/users/show.json", vals, &u); err != nil {
		return nil, err
	}
	return &u, nil
}

func TestUserShowBScreenName(t *testing.T) {
	srv, client := newTestServer(t)
	want := srv.engine.World().Accounts()[3]
	got, err := userShow(client, url.Values{"screen_name": {want.ScreenName}})
	if err != nil {
		t.Fatalf("users/show: %v", err)
	}
	if got.ID != int64(want.ID) || got.FollowersCount != want.FollowersCount {
		t.Fatalf("users/show mismatch: got %+v", got)
	}
}

func TestUserShowByID(t *testing.T) {
	srv, client := newTestServer(t)
	want := srv.engine.World().Accounts()[7]
	got, err := userShow(client, url.Values{"user_id": {strconv.FormatInt(int64(want.ID), 10)}})
	if err != nil {
		t.Fatalf("users/show: %v", err)
	}
	if got.ScreenName != want.ScreenName {
		t.Fatalf("users/show returned %q, want %q", got.ScreenName, want.ScreenName)
	}
}

func TestUserShowNotFound(t *testing.T) {
	_, client := newTestServer(t)
	_, err := userShow(client, url.Values{"screen_name": {"definitely_not_a_user_xyz"}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != 404 {
		t.Fatalf("want 404 APIError, got %v", err)
	}
}

func TestUsersLookupSkipsUnknown(t *testing.T) {
	srv, client := newTestServer(t)
	accts := srv.engine.World().Accounts()
	ids := []int64{int64(accts[0].ID), 99999999, int64(accts[1].ID)}
	users, err := client.UsersLookup(context.Background(), ids)
	if err != nil {
		t.Fatalf("UsersLookup: %v", err)
	}
	if len(users) != 2 {
		t.Fatalf("UsersLookup returned %d users, want 2", len(users))
	}
}

func TestUsersSearchNumericAttribute(t *testing.T) {
	_, client := newTestServer(t)
	accounts, err := client.Screen(context.Background(), socialnet.ScreenQuery{
		Selector: socialnet.Selector{Attr: socialnet.AttrFollowers, Value: 1000},
		Count:    5,
	})
	if err != nil {
		t.Fatalf("users/search: %v", err)
	}
	if len(accounts) == 0 {
		t.Fatal("no users found near followers=1000")
	}
	for _, a := range accounts {
		if a.FollowersCount < 650 || a.FollowersCount > 1350 {
			t.Fatalf("user %q followers %d outside band", a.ScreenName, a.FollowersCount)
		}
	}
}

func TestUsersSearchHashtagAndTrend(t *testing.T) {
	_, client := newTestServer(t)
	social, err := parseCategory("social")
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []socialnet.Selector{
		{Attr: socialnet.AttrHashtag, Category: social},
		{Attr: socialnet.AttrTrend, Trend: socialnet.TrendUp},
	} {
		accounts, err := client.Screen(context.Background(), socialnet.ScreenQuery{Selector: sel, Count: 5})
		if err != nil || len(accounts) == 0 {
			t.Fatalf("%v search: %v (%d users)", sel, err, len(accounts))
		}
	}
}

func TestUsersSearchRejectsBadRequests(t *testing.T) {
	_, client := newTestServer(t)
	search := func(vals url.Values) error {
		req, err := client.newFormRequest(context.Background(), "/1.1/users/search.json", vals)
		if err != nil {
			t.Fatal(err)
		}
		return client.do(req, nil)
	}
	var apiErr *APIError
	if err := search(url.Values{"attr": {"nope"}, "count": {"5"}}); !errors.As(err, &apiErr) || apiErr.Code != 400 {
		t.Fatalf("bad attr: want 400, got %v", err)
	}
	if err := search(url.Values{"attr": {"random"}, "count": {"0"}}); !errors.As(err, &apiErr) || apiErr.Code != 400 {
		t.Fatalf("bad count: want 400, got %v", err)
	}
}

func TestTrendsEndpoint(t *testing.T) {
	_, client := newTestServer(t)
	trends := func(state string) []Trend {
		t.Helper()
		var out []Trend
		vals := url.Values{}
		if state != "" {
			vals.Set("state", state)
		}
		if err := client.getJSON(context.Background(), "/1.1/trends.json", vals, &out); err != nil {
			t.Fatalf("trends(%q): %v", state, err)
		}
		return out
	}
	if all := trends(""); len(all) == 0 {
		t.Fatal("no trends")
	}
	for _, tr := range trends("trending-up") {
		if tr.State != "trending-up" {
			t.Fatalf("trend %q state %q, want trending-up", tr.Name, tr.State)
		}
	}
}

func TestAdvanceAndStats(t *testing.T) {
	_, client := newTestServer(t)
	stats, err := client.Advance(context.Background(), 2)
	if err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if stats.Hours != 2 || stats.TweetsTotal == 0 {
		t.Fatalf("stats after advance: %+v", stats)
	}
	again, err := client.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if again.TweetsTotal != stats.TweetsTotal {
		t.Fatal("Stats disagrees with Advance response")
	}
}

// streamHours opens one stream tracking track, advances the server hours
// simulated hours, and returns every tweet delivered up to the last hour's
// control line, cloned. Each control line must close the next hour and
// report no drops.
func streamHours(t *testing.T, srv *Server, client *Client, track []string, hours int) []Tweet {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := client.Stream(ctx, track)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	first := srv.engine.Hour()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Advance(hours)
	}()
	defer func() { <-done }()
	var got []Tweet
	for h := first; h < first+hours; {
		tw, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if he := tw.HourEnd; he != nil {
			if he.Hour != h || he.Dropped != 0 {
				t.Fatalf("control line %+v, want hour %d without drops", *he, h)
			}
			h++
			continue
		}
		got = append(got, *tw)
	}
	return got
}

func TestStreamDeliversMentionFilteredTweets(t *testing.T) {
	srv, client := newTestServer(t)

	// Track the most attractive accounts so spam mentions hit them. A
	// name tracks every account holding it.
	var tracked []string
	trackedNames := make(map[string]struct{})
	world := srv.engine.World()
	now := srv.engine.Now()
	for _, a := range world.Accounts() {
		if world.Attraction(a, now) > 4 {
			tracked = append(tracked, "@"+a.ScreenName)
			trackedNames[a.ScreenName] = struct{}{}
		}
		if len(tracked) >= 20 {
			break
		}
	}
	if len(tracked) == 0 {
		t.Fatal("no attractive accounts to track")
	}

	got := streamHours(t, srv, client, tracked, 3)
	if len(got) == 0 {
		t.Fatal("stream delivered no tweets")
	}
	for _, tw := range got {
		if _, ok := trackedNames[tw.User.ScreenName]; ok {
			continue // tracked account's own post
		}
		found := false
		for _, m := range tw.Entities.Mentions {
			if _, ok := trackedNames[m.ScreenName]; ok {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("stream delivered unrelated tweet %d", tw.ID)
		}
	}
}

// TestStreamFirehoseWithoutFilters: with no filter the stream carries every
// tweet of the hour, in engine order.
func TestStreamFirehoseWithoutFilters(t *testing.T) {
	srv, client := newTestServer(t)
	var want []int64
	cancel := srv.engine.Subscribe(func(tw *socialnet.Tweet) { want = append(want, int64(tw.ID)) })
	defer cancel()
	got := streamHours(t, srv, client, nil, 1)
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("firehose delivered %d tweets, the engine generated %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i] {
			t.Fatalf("tweet %d: id %d, engine order has %d", i, got[i].ID, want[i])
		}
	}
}

func TestOracleFieldsHiddenByDefault(t *testing.T) {
	srv, client := newTestServer(t)
	got := streamHours(t, srv, client, nil, 1)
	if len(got) == 0 {
		t.Fatal("no tweets observed")
	}
	for _, tw := range got {
		if tw.Spam != nil || tw.CampaignID != nil {
			t.Fatal("ground-truth fields leaked on a non-oracle stream")
		}
	}
}

func TestOracleFieldsPresentWhenEnabled(t *testing.T) {
	srv, client := newTestServer(t, WithOracle())
	got := streamHours(t, srv, client, nil, 1)
	withOracle := 0
	for _, tw := range got {
		if tw.Spam != nil {
			withOracle++
		}
	}
	if len(got) == 0 || withOracle != len(got) {
		t.Fatalf("oracle fields on %d/%d tweets, want all", withOracle, len(got))
	}
}

func TestSplitNonEmpty(t *testing.T) {
	if got := splitNonEmpty(""); got != nil {
		t.Fatalf("splitNonEmpty(empty) = %v", got)
	}
	got := splitNonEmpty("a,,b, ,c")
	if len(got) != 3 {
		t.Fatalf("splitNonEmpty = %v, want 3 parts", got)
	}
}

func TestTrendNameMapping(t *testing.T) {
	if trendName(socialnet.TrendUp) != "trending-up" {
		t.Fatal("trendName(TrendUp) wrong")
	}
	if !strings.Contains(trendName(socialnet.TrendNone), "no-trending") {
		t.Fatal("trendName(TrendNone) wrong")
	}
	if _, err := parseTrend("trending-down"); err != nil {
		t.Fatal("parseTrend rejected valid state")
	}
	if _, err := parseTrend("bogus"); err == nil {
		t.Fatal("parseTrend accepted bogus state")
	}
	if _, err := parseCategory("social"); err != nil {
		t.Fatal("parseCategory rejected valid category")
	}
	if _, err := parseCategory("no hashtag"); err != nil {
		t.Fatal("parseCategory rejected no-hashtag")
	}
	if _, err := parseCategory("bogus"); err == nil {
		t.Fatal("parseCategory accepted bogus category")
	}
}

func TestEncodeTweetMentions(t *testing.T) {
	srv, _ := newTestServer(t)
	world := srv.engine.World()
	a := world.Accounts()[0]
	b := world.Accounts()[1]
	tw := &socialnet.Tweet{
		ID:        1,
		AuthorID:  a.ID,
		CreatedAt: time.Now(),
		Kind:      socialnet.KindTweet,
		Source:    socialnet.SourceWeb,
		Text:      "hi",
		Mentions:  []socialnet.AccountID{b.ID},
	}
	wire := encodeTweet(tw, world.Account, false)
	if wire.User.ID != int64(a.ID) {
		t.Fatal("author not encoded")
	}
	if len(wire.Entities.Mentions) != 1 || wire.Entities.Mentions[0].ScreenName != b.ScreenName {
		t.Fatal("mentions not encoded")
	}
	if wire.Spam != nil {
		t.Fatal("oracle fields in non-oracle encode")
	}
}
