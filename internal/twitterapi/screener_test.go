package twitterapi

import (
	"context"
	"math/rand"
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

	exclude := make(map[socialnet.AccountID]struct{})
	for i, a := range local.Accounts() {
		if i%2 == 0 {
			exclude[a.ID] = struct{}{}
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
			if _, excluded := exclude[a.ID]; excluded {
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
	if m.NodeCount() == 0 {
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
