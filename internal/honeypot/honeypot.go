// Package honeypot implements the baselines the paper compares against
// (§V-E, Table VII, Figure 6):
//
//   - Traditional manually-deployed honeypots in the spirit of Stringhini
//     et al. (ACSAC'10), Lee et al. (ICWSM'11), and Yang et al. (ACSAC'14):
//     freshly created artificial accounts with manually configured
//     attributes, injected into the simulated world. Because a new account
//     cannot fake a long history — account age, list memberships, organic
//     mention traffic — its attraction to spammers is structurally lower
//     than a harnessed real account's, which is exactly the paper's
//     argument.
//
//   - The published systems' efficiency numbers (Table VII's literature
//     rows), which were constants in the paper too.
package honeypot

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// Config parameterizes a traditional honeypot deployment.
type Config struct {
	// Nodes is the number of artificial honeypot accounts to create.
	Nodes int
	// Friends is the manually configured following count (honeypots
	// follow users to appear social; they cannot buy organic followers).
	Friends int
	// PostsPerHour is the bait-posting rate.
	PostsPerHour float64
	// Seed drives account fabrication.
	Seed int64
}

// DefaultConfig mirrors the published deployments' scale (tens of nodes).
func DefaultConfig() Config {
	return Config{Nodes: 60, Friends: 1000, PostsPerHour: 0.5, Seed: 1}
}

// Deployment is a set of injected honeypot accounts with capture counters.
type Deployment struct {
	cfg      Config
	world    *socialnet.World
	nodes    map[socialnet.AccountID]struct{}
	deployed time.Time

	tweets   int
	spams    int
	spammers map[socialnet.AccountID]struct{}
	hours    float64
}

// Deploy fabricates cfg.Nodes fresh accounts and injects them into the
// world. The accounts imitate normal users (bait descriptions, some
// following activity) but start with zero history: age ≈ 0, no lists, no
// followers, no favourites — the attributes the paper notes cannot be
// manually set up.
func Deploy(world *socialnet.World, cfg Config, now time.Time) *Deployment {
	if cfg.Nodes <= 0 {
		cfg.Nodes = DefaultConfig().Nodes
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Deployment{
		cfg:      cfg,
		world:    world,
		nodes:    make(map[socialnet.AccountID]struct{}, cfg.Nodes),
		deployed: now,
		spammers: make(map[socialnet.AccountID]struct{}),
	}
	for i := 0; i < cfg.Nodes; i++ {
		imgSeed := rng.Int63()
		a := &socialnet.Account{
			ScreenName:       fmt.Sprintf("friendly_user_%04d", rng.Intn(10000)),
			Name:             "Friendly User",
			Description:      "love music, movies and meeting new people",
			CreatedAt:        now, // brand new — age cannot be faked
			FriendsCount:     cfg.Friends,
			FollowersCount:   rng.Intn(5), // nobody follows a day-old account
			ProfileImageSeed: imgSeed,
			ProfileImageHash: world.AvatarHash(imgSeed),
			Kind:             socialnet.KindNormal,
			CampaignID:       socialnet.NoCampaign,
			HashtagCategory:  socialnet.HashtagGeneral,
			TrendAffinity:    socialnet.TrendNone,
			TweetsPerHour:    cfg.PostsPerHour,
			PreferredSource:  socialnet.SourceWeb,
		}
		id := world.AddAccount(a)
		d.nodes[id] = struct{}{}
	}
	return d
}

// OnTweet feeds the honeypot's capture filter: anything mentioning a
// honeypot account is trapped. Ground truth is read directly — a honeypot
// knows that unsolicited mentions of a fake account are spam; that is its
// defining advantage and why the paper's comparison focuses on *rate*,
// not precision.
func (d *Deployment) OnTweet(t *socialnet.Tweet) {
	hit := false
	for _, m := range t.Mentions {
		if _, ok := d.nodes[m]; ok {
			hit = true
			break
		}
	}
	if !hit {
		return
	}
	d.tweets++
	if t.Spam {
		d.spams++
		d.spammers[t.AuthorID] = struct{}{}
	}
}

// AddHours accrues monitored time for the PGE denominator.
func (d *Deployment) AddHours(h float64) { d.hours += h }

// Stats reports the deployment's capture counters.
func (d *Deployment) Stats() (tweets, spams, spammers int, nodeHours float64) {
	return d.tweets, d.spams, len(d.spammers), float64(len(d.nodes)) * d.hours
}

// PGE returns spammers garnered per node per hour.
func (d *Deployment) PGE() float64 {
	_, _, spammers, nodeHours := d.Stats()
	if nodeHours == 0 {
		return 0
	}
	return float64(spammers) / nodeHours
}

// LiteratureRow is one published honeypot system's efficiency (the paper's
// Table VII constants).
type LiteratureRow struct {
	System   string
	Year     int
	Duration string
	Nodes    int
	Spams    int // -1 when unreported
	Spammers int // -1 when unreported
	PGE      float64
}

// LiteratureRows reproduces the published systems the paper compares
// against in Table VII.
func LiteratureRows() []LiteratureRow {
	return []LiteratureRow{
		{System: "Stringhini et al. [27]", Year: 2010, Duration: "11 months", Nodes: 300, Spams: -1, Spammers: 15857, PGE: 0.0067},
		{System: "Lee et al. [17]", Year: 2011, Duration: "7 months", Nodes: 60, Spams: -1, Spammers: 36000, PGE: 0.12},
		{System: "Yang et al. [38]", Year: 2014, Duration: "5 months", Nodes: 96, Spams: 17000, Spammers: 1159, PGE: 0.0034},
		{System: "Yang et al. [38] advanced", Year: 2014, Duration: "10 days", Nodes: 10, Spams: -1, Spammers: -1, PGE: 0.087},
	}
}

// BestLiteraturePGE returns the highest published honeypot PGE (Lee et
// al.'s 0.12 — the denominator of the paper's "at least 19× faster").
func BestLiteraturePGE() float64 {
	best := 0.0
	for _, r := range LiteratureRows() {
		if r.PGE > best {
			best = r.PGE
		}
	}
	return best
}
