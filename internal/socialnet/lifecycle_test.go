package socialnet

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil/texttest"
)

func TestSpawnSpammerJoinsWorld(t *testing.T) {
	w := newTestWorld(t)
	before := w.NumAccounts()
	now := time.Now()
	a := w.SpawnSpammer(now)
	if w.NumAccounts() != before+1 {
		t.Fatal("spawned spammer not added")
	}
	if a.Kind != KindSpammer {
		t.Fatal("spawned account not a spammer")
	}
	if a.spamBudget <= 0 {
		t.Fatal("spawned spammer has no budget")
	}
	if w.Account(a.ID) != a {
		t.Fatal("spawned spammer not indexed")
	}
	// Campaign membership recorded.
	found := false
	for _, c := range w.Campaigns() {
		for _, id := range c.MemberIDs {
			if id == a.ID {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("spawned spammer not in any campaign")
	}
}

func TestSpawnSpammerDeterministic(t *testing.T) {
	mk := func() []string {
		w, err := NewWorld(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		now := time.Now()
		var names []string
		for i := 0; i < 10; i++ {
			names = append(names, w.SpawnSpammer(now).ScreenName)
		}
		return names
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SpawnSpammer not deterministic across equal-seed worlds")
		}
	}
}

func TestAdvanceSuspensionsCoverage(t *testing.T) {
	w := newTestWorld(t)
	rng := rand.New(rand.NewSource(1))
	// rate 0.003/h over 250 h ⇒ ~53% of spammers suspended.
	w.AdvanceSuspensions(250, rng)
	spammers, suspended := 0, 0
	falseSusp := 0
	for _, a := range w.Accounts() {
		if a.Kind == KindSpammer {
			spammers++
			if a.Suspended {
				suspended++
			}
		} else if a.Suspended {
			falseSusp++
		}
	}
	frac := float64(suspended) / float64(spammers)
	if frac < 0.3 || frac > 0.75 {
		t.Fatalf("suspension coverage %v, want ≈0.53", frac)
	}
	// False suspensions must stay rare (pre-existing ones aside).
	if falseSusp > spammers {
		t.Fatalf("implausible false suspensions: %d", falseSusp)
	}
}

func TestAdvanceSuspensionsZeroHours(t *testing.T) {
	w := newTestWorld(t)
	if n := w.AdvanceSuspensions(0, rand.New(rand.NewSource(1))); n != 0 {
		t.Fatalf("zero-hour advance suspended %d", n)
	}
}

func TestSpamBudgetDistribution(t *testing.T) {
	w := newTestWorld(t)
	const draws = 20000
	sum := 0
	ones := 0
	for i := 0; i < draws; i++ {
		b := w.drawSpamBudget()
		if b < 1 {
			t.Fatalf("budget %d < 1", b)
		}
		sum += b
		if b == 1 {
			ones++
		}
	}
	mean := float64(sum) / draws
	want := w.cfg.SpamBudgetMean
	// Mean within 30% of configured (burst tail inflates slightly).
	if mean < want*0.7 || mean > want*1.6 {
		t.Fatalf("budget mean %v, configured %v", mean, want)
	}
	if float64(ones)/draws < 0.3 {
		t.Fatalf("single-message budgets only %v of draws", float64(ones)/draws)
	}
}

func TestLoneWolvesLookOrganic(t *testing.T) {
	w := newTestWorld(t)
	campaigns := w.Campaigns()
	var loneWolfID AccountID
	for _, c := range campaigns {
		if c.LoneWolf() && len(c.MemberIDs) > 0 {
			loneWolfID = c.MemberIDs[0]
			break
		}
	}
	if loneWolfID == 0 {
		t.Fatal("no lone wolves generated")
	}
	lw := w.Account(loneWolfID)
	// Organic-looking artefacts: no campaign naming template (no leading
	// uppercase shape), benign-style description without campaign URLs.
	seq := textutil.ClassSeqWithRunLengths(lw.ScreenName)
	if seq[0] == 'U' {
		t.Fatalf("lone wolf name %q uses campaign template shape", lw.ScreenName)
	}
	for _, domain := range MaliciousDomains {
		if strings.Contains(lw.Description, domain) {
			t.Fatalf("lone wolf description leaks campaign URL: %q", lw.Description)
		}
	}
}

func TestCampaignMembersShareDescTemplate(t *testing.T) {
	w := newTestWorld(t)
	for _, c := range w.Campaigns() {
		if c.LoneWolf() || len(c.MemberIDs) < 2 {
			continue
		}
		a := w.Account(c.MemberIDs[0])
		b := w.Account(c.MemberIDs[1])
		// Both descriptions derive from the same template: normalized
		// forms must be near-duplicates.
		na := textutil.NormalizeDescription(a.Description)
		nb := textutil.NormalizeDescription(b.Description)
		sim := texttest.Jaccard(texttest.Shingles(na, 3), texttest.Shingles(nb, 3))
		if sim < 0.5 {
			t.Fatalf("campaign descriptions too dissimilar (%v):\n%q\n%q", sim, na, nb)
		}
		return
	}
	t.Fatal("no multi-member campaign found")
}

func TestBenignDescriptionsRarelyNearDuplicate(t *testing.T) {
	w := newTestWorld(t)
	var normals []*Account
	for _, a := range w.Accounts() {
		if a.Kind == KindNormal {
			normals = append(normals, a)
		}
		if len(normals) >= 120 {
			break
		}
	}
	dup := 0
	pairs := 0
	for i := 0; i < len(normals); i++ {
		for j := i + 1; j < i+6 && j < len(normals); j++ {
			na := textutil.NormalizeDescription(normals[i].Description)
			nb := textutil.NormalizeDescription(normals[j].Description)
			if texttest.Jaccard(texttest.Shingles(na, 3), texttest.Shingles(nb, 3)) >= 0.85 {
				dup++
			}
			pairs++
		}
	}
	if float64(dup)/float64(pairs) > 0.02 {
		t.Fatalf("%d/%d benign description pairs near-duplicate", dup, pairs)
	}
}

func TestBurnedSpammerGoesDark(t *testing.T) {
	cfg := testConfig()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w)
	e.RunHours(6)
	burned := 0
	for _, a := range w.Accounts() {
		if a.Kind != KindSpammer || a.spamBudget > 0 {
			continue
		}
		burned++
		if a.TweetsPerHour > 0.05 {
			t.Fatalf("burned spammer still posting at %v/h", a.TweetsPerHour)
		}
	}
	if burned == 0 {
		t.Fatal("no spammers burned after 6 hours")
	}
}

func TestChurnKeepsSpamVolumeSteady(t *testing.T) {
	w, err := NewWorld(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w)
	spamByHour := make([]int, 0, 12)
	spamThisHour := 0
	e.Subscribe(func(tw *Tweet) {
		if tw.Spam {
			spamThisHour++
		}
	})
	for h := 0; h < 12; h++ {
		spamThisHour = 0
		e.RunHours(1)
		spamByHour = append(spamByHour, spamThisHour)
	}
	// Later hours must still produce spam (churn replaces burned
	// accounts); without churn volume would decay toward zero.
	late := spamByHour[9] + spamByHour[10] + spamByHour[11]
	if late == 0 {
		t.Fatalf("spam volume collapsed: %v", spamByHour)
	}
}

func TestChurnDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.SpammerChurn = false
	cfg.SpamBudgetMean = 1
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w)
	before := w.NumAccounts()
	e.RunHours(5)
	if w.NumAccounts() != before {
		t.Fatal("accounts spawned with churn disabled")
	}
}

// Spammers hunt in the rising-topic streams: accounts with trending-up
// affinity must receive disproportionate spam relative to their share of
// the attraction mass (paper Fig. 5's trending-up dominance).
func TestTrendingStreamHunting(t *testing.T) {
	w, err := NewWorld(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w)
	spamByAffinity := make(map[TrendState]int)
	e.Subscribe(func(tw *Tweet) {
		if !tw.Spam || len(tw.Mentions) == 0 {
			return
		}
		if v := w.Account(tw.Mentions[0]); v != nil {
			spamByAffinity[v.TrendAffinity]++
		}
	})
	e.RunHours(10)

	up := spamByAffinity[TrendUp]
	down := spamByAffinity[TrendDown]
	if up == 0 {
		t.Fatal("no spam reached trending-up accounts")
	}
	// Up and Down affinities have similar population shares (13.3% each
	// of normals); the rising-topic hunting plus the attraction boost
	// must tilt spam toward trending-up victims.
	if up <= down {
		t.Fatalf("trending-up victims got %d spam vs trending-down %d", up, down)
	}
}
