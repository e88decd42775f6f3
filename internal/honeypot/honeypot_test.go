package honeypot

import (
	"math/rand"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/imagehash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

func testWorld(t *testing.T) *socialnet.World {
	t.Helper()
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 2000
	cfg.OrganicTweetsPerHour = 400
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestDeployInjectsAccounts(t *testing.T) {
	w := testWorld(t)
	before := w.NumAccounts()
	d := Deploy(w, Config{Nodes: 20, Friends: 500, Seed: 1}, time.Now())
	if w.NumAccounts() != before+20 {
		t.Fatalf("world grew by %d, want 20", w.NumAccounts()-before)
	}
	if len(d.NodeIDs()) != 20 {
		t.Fatalf("deployment has %d nodes", len(d.NodeIDs()))
	}
	for _, id := range d.NodeIDs() {
		a := w.Account(id)
		if a == nil {
			t.Fatalf("honeypot %d not in world", id)
		}
		if a.Kind != socialnet.KindNormal || a.CampaignID != socialnet.NoCampaign {
			t.Fatal("honeypot account mislabeled")
		}
	}
}

// TestDeployHashesUnderWorldMode checks that honeypot avatars carry the
// world's configured hash, so the labeler's image grouper compares them
// with every other account under one algorithm.
func TestDeployHashesUnderWorldMode(t *testing.T) {
	for _, mode := range []string{socialnet.ImageHashDHash, socialnet.ImageHashPHash} {
		cfg := socialnet.DefaultConfig()
		cfg.NumAccounts = 200
		cfg.ImageHashMode = mode
		w, err := socialnet.NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := Deploy(w, Config{Nodes: 5, Friends: 500, Seed: 1}, time.Now())
		for _, id := range d.NodeIDs() {
			a := w.Account(id)
			m := imagehash.NewSynthesizer().Synthesize(a.ProfileImageSeed)
			want := imagehash.DHash(m)
			if mode == socialnet.ImageHashPHash {
				want = imagehash.PHash(m)
			}
			if a.ProfileImageHash != want {
				t.Fatalf("%s world: honeypot %d hash %v, want %v", mode, id, a.ProfileImageHash, want)
			}
		}
	}
}

func TestDeployDefaultsNodes(t *testing.T) {
	w := testWorld(t)
	d := Deploy(w, Config{}, time.Now())
	if len(d.NodeIDs()) != DefaultConfig().Nodes {
		t.Fatalf("default deploy = %d nodes", len(d.NodeIDs()))
	}
}

func TestAddAccountAssignsUniqueIDs(t *testing.T) {
	w := testWorld(t)
	seen := make(map[socialnet.AccountID]struct{})
	for _, a := range w.Accounts() {
		seen[a.ID] = struct{}{}
	}
	for i := 0; i < 10; i++ {
		id := w.AddAccount(&socialnet.Account{ScreenName: "x"})
		if _, dup := seen[id]; dup {
			t.Fatalf("AddAccount reused id %d", id)
		}
		seen[id] = struct{}{}
	}
}

func TestOnTweetCountsOnlyHoneypotMentions(t *testing.T) {
	w := testWorld(t)
	d := Deploy(w, Config{Nodes: 5, Seed: 1}, time.Now())
	hp := d.NodeIDs()[0]

	d.OnTweet(&socialnet.Tweet{ID: 1, AuthorID: 500, Mentions: []socialnet.AccountID{hp}, Spam: true})
	d.OnTweet(&socialnet.Tweet{ID: 2, AuthorID: 501, Mentions: []socialnet.AccountID{hp}})
	d.OnTweet(&socialnet.Tweet{ID: 3, AuthorID: 502, Mentions: []socialnet.AccountID{1}}) // unrelated

	tweets, spams, spammers, _ := d.Stats()
	if tweets != 2 || spams != 1 || spammers != 1 {
		t.Fatalf("stats = %d/%d/%d, want 2/1/1", tweets, spams, spammers)
	}
}

func TestPGEComputation(t *testing.T) {
	w := testWorld(t)
	d := Deploy(w, Config{Nodes: 10, Seed: 1}, time.Now())
	for i := 0; i < 5; i++ {
		d.OnTweet(&socialnet.Tweet{
			ID: socialnet.TweetID(i), AuthorID: socialnet.AccountID(100 + i),
			Mentions: []socialnet.AccountID{d.NodeIDs()[0]}, Spam: true,
		})
	}
	d.AddHours(10)
	if got := d.PGE(); got != 0.05 {
		t.Fatalf("PGE = %v, want 5/(10*10) = 0.05", got)
	}
}

func TestPGEZeroWithoutHours(t *testing.T) {
	w := testWorld(t)
	d := Deploy(w, Config{Nodes: 10, Seed: 1}, time.Now())
	if d.PGE() != 0 {
		t.Fatal("PGE without monitored hours should be 0")
	}
}

func TestLiteratureRows(t *testing.T) {
	rows := LiteratureRows()
	if len(rows) != 4 {
		t.Fatalf("%d literature rows, want 4", len(rows))
	}
	if BestLiteraturePGE() != 0.12 {
		t.Fatalf("best literature PGE = %v, want Lee's 0.12", BestLiteraturePGE())
	}
}

// The paper's central comparison: in the same world over the same hours, a
// pseudo-honeypot network garners spammers at a far higher per-node-hour
// rate than freshly deployed traditional honeypots.
func TestPseudoHoneypotOutperformsTraditional(t *testing.T) {
	w := testWorld(t)
	e := socialnet.NewEngine(w)

	hp := Deploy(w, Config{Nodes: 50, Friends: 1000, Seed: 1}, e.Now())
	e.Subscribe(hp.OnTweet)
	e.OnHourStart(func(int, time.Time) { hp.AddHours(1) })

	m := core.NewMonitor(core.MonitorConfig{
		Specs: core.StandardSpecs(1),
		Seed:  1,
	}, &core.LocalScreener{World: w, Rng: rand.New(rand.NewSource(2))})
	detach := core.Attach(m, e)
	defer detach()

	e.RunHours(12)

	// Score pseudo-honeypot captures with ground truth (same oracle the
	// honeypot enjoys) for a like-for-like rate comparison.
	verdicts := make([]bool, len(m.Captures()))
	for i, c := range m.Captures() {
		verdicts[i] = c.Tweet.Spam
	}
	m.AttributeSpam(verdicts)

	var pseudoSpammers int
	var pseudoNodeHours float64
	spammerSet := make(map[socialnet.AccountID]struct{})
	for _, g := range m.Groups() {
		pseudoNodeHours += g.NodeHours
		for id := range g.Spammers {
			spammerSet[id] = struct{}{}
		}
	}
	pseudoSpammers = len(spammerSet)
	pseudoPGE := float64(pseudoSpammers) / pseudoNodeHours

	if pseudoSpammers == 0 {
		t.Fatal("pseudo-honeypot caught nothing")
	}
	hpPGE := hp.PGE()
	if pseudoPGE <= hpPGE {
		t.Fatalf("pseudo PGE %v <= honeypot PGE %v", pseudoPGE, hpPGE)
	}
	t.Logf("pseudo PGE %.4f vs honeypot PGE %.4f (ratio %.1f)",
		pseudoPGE, hpPGE, pseudoPGE/maxF(hpPGE, 1e-9))
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
