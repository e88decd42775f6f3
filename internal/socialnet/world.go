package socialnet

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/imagehash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/simclock"
)

// World is a generated social network: the account population, the spam
// campaigns hiding inside it, and the trend feed. A World is created once
// and then driven by an Engine.
//
// Like Engine, World is not safe for concurrent use: its methods — Screen
// included, which maintains a cached index — belong to the goroutine that
// drives the engine.
type World struct {
	cfg      Config
	rng      *rand.Rand
	gen      *textGen
	accounts []*Account
	byID     map[AccountID]*Account
	// byName maps a screen name to the first account registered under it.
	byName    map[string]*Account
	campaigns []*Campaign
	trends    *TrendSet
	start     time.Time

	// generation counts in-package writes to the account fields Screen
	// reads (see profilesChanged); screen is the index keyed on it.
	generation uint64
	screen     screenIndex
}

// profilesChanged invalidates the screening index. Every site in this
// package that writes a field Screen reads on a world account — Suspended,
// lastPostAt, recentMentions, CreatedAt, the five profile counts, hashtag
// category, trend affinity — or changes w.accounts must call it before
// control can next reach Screen (a subscriber, an hour hook, the caller).
func (w *World) profilesChanged() { w.generation++ }

// NewWorld generates a world from cfg. Generation is deterministic in
// cfg.Seed.
func NewWorld(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &World{
		cfg:    cfg,
		rng:    rng,
		gen:    newTextGen(rng),
		byID:   make(map[AccountID]*Account, cfg.NumAccounts),
		byName: make(map[string]*Account, cfg.NumAccounts),
		trends: NewTrendSet(rand.New(rand.NewSource(cfg.Seed + 1))),
		start:  simclock.Epoch,
	}
	w.generate()
	return w, nil
}

// Config returns the world's configuration.
func (w *World) Config() Config { return w.cfg }

// Trends returns the world's trend feed.
func (w *World) Trends() *TrendSet { return w.trends }

// Campaigns returns the spam campaigns (evaluation/oracle use only).
func (w *World) Campaigns() []*Campaign {
	return append([]*Campaign(nil), w.campaigns...)
}

// NumAccounts returns the population size.
func (w *World) NumAccounts() int { return len(w.accounts) }

// Account returns the account with the given id, or nil.
func (w *World) Account(id AccountID) *Account { return w.byID[id] }

// Accounts returns the account slice. Callers must not mutate entries; the
// slice itself is a copy.
func (w *World) Accounts() []*Account {
	return append([]*Account(nil), w.accounts...)
}

// ByScreenName finds an account by screen name, or nil. Screen names are
// not guaranteed unique; the first match wins, as in a search API.
func (w *World) ByScreenName(name string) *Account { return w.byName[name] }

// registerName indexes a under its screen name unless an earlier account
// already holds it.
func (w *World) registerName(a *Account) {
	if _, taken := w.byName[a.ScreenName]; !taken {
		w.byName[a.ScreenName] = a
	}
}

// AddAccount registers an externally created account (e.g. a traditional
// honeypot) and returns its assigned id. The account joins the world's
// population and becomes targetable by spammers on the next engine hour.
func (w *World) AddAccount(a *Account) AccountID {
	id := AccountID(len(w.byID) + 1)
	for {
		if _, taken := w.byID[id]; !taken {
			break
		}
		id++
	}
	a.ID = id
	w.accounts = append(w.accounts, a)
	w.byID[id] = a
	w.registerName(a)
	w.profilesChanged()
	return id
}

// generate builds the account population and campaigns.
func (w *World) generate() {
	n := w.cfg.NumAccounts
	numSpammers := int(float64(n) * w.cfg.SpammerFraction)
	numSeeds := int(float64(n) * w.cfg.SeedFraction)
	numLoneWolves := int(float64(numSpammers) * w.cfg.LoneWolfFraction)
	numCampaignMembers := numSpammers - numLoneWolves
	numCampaigns := numCampaignMembers / w.cfg.AccountsPerCampaign
	if numCampaignMembers > 0 && numCampaigns == 0 {
		numCampaigns = 1
	}

	for i := 0; i < numCampaigns; i++ {
		w.campaigns = append(w.campaigns, newCampaign(i, w.rng))
	}
	// Cross-source campaigns: replace already-drawn base-image seeds so
	// another world's campaigns share these avatars. A pure overwrite —
	// no rng draw is added or removed, so all other generation is
	// untouched.
	for i, seed := range w.cfg.CampaignImageSeeds {
		if i >= len(w.campaigns) {
			break
		}
		w.campaigns[i].BaseImageSeed = seed
	}

	w.accounts = make([]*Account, 0, n)
	for i := 0; i < n; i++ {
		id := AccountID(i + 1)
		var a *Account
		switch {
		case i < numCampaignMembers && numCampaigns > 0:
			a = w.genSpammer(id, w.campaigns[i%numCampaigns], w.start)
		case i < numCampaignMembers+numLoneWolves:
			c := newLoneWolfCampaign(len(w.campaigns), w.rng)
			w.campaigns = append(w.campaigns, c)
			a = w.genSpammer(id, c, w.start)
		case i < numSpammers+numSeeds:
			a = w.genSeed(id)
		default:
			a = w.genNormal(id)
		}
		w.accounts = append(w.accounts, a)
		w.byID[id] = a
	}
	// Shuffle so account ids do not leak kind.
	w.rng.Shuffle(len(w.accounts), func(i, j int) {
		w.accounts[i], w.accounts[j] = w.accounts[j], w.accounts[i]
	})
	// After the shuffle, so the first holder of a duplicated name is the
	// first in w.accounts order — the one a scan would find.
	for _, a := range w.accounts {
		w.registerName(a)
	}
}

// hashAvatar computes the configured perceptual hash of an avatar image.
// The default (dHash) is what every pinned golden was recorded under.
func (w *World) hashAvatar(m *imagehash.Image) imagehash.Hash {
	if w.cfg.ImageHashMode == ImageHashPHash {
		return imagehash.PHash(m)
	}
	return imagehash.DHash(m)
}

// genNormal creates a benign account. A DiverseFraction share of the
// population draws attributes log-uniformly over the full Table II ranges;
// the rest follow typical lognormal profiles.
func (w *World) genNormal(id AccountID) *Account {
	rng := w.rng
	diverse := rng.Float64() < w.cfg.DiverseFraction

	ageDays := logUniform(rng, 10, 3200)
	var followers, friends, lists, favs, statuses int
	if diverse {
		followers = int(logUniform(rng, 1, 22000))
		friends = int(logUniform(rng, 1, 22000))
		favs = int(logUniform(rng, 1, 260000))
		statuses = int(logUniform(rng, 1, 260000))
	} else {
		followers = int(logNormal(rng, math.Log(150), 1.3))
		friends = int(logNormal(rng, math.Log(200), 1.1))
		favs = int(logNormal(rng, math.Log(300), 1.6))
		statuses = int(logNormal(rng, math.Log(400), 1.6))
	}
	// List membership tracks audience: only well-followed accounts are
	// added to many lists, which keeps high lists-per-day values rare and
	// exceptional (they top the paper's PGE ranking precisely because of
	// that).
	lists = int(logUniform(rng, 1, math.Max(2, float64(followers)/3+2)))

	cat := HashtagNone
	if rng.Float64() < 0.7 {
		cat = HashtagCategories[rng.Intn(len(HashtagCategories))]
	}
	affinity := TrendNone
	if rng.Float64() < 0.4 {
		affinity = TrendStates[rng.Intn(len(TrendStates)-1)] // excludes TrendNone at end? see below
	}

	imgSeed := rng.Int63()
	a := &Account{
		ID:               id,
		ScreenName:       w.gen.normalScreenName(id),
		Name:             w.gen.displayName(),
		Description:      w.gen.benignDescription(),
		CreatedAt:        w.start.Add(-time.Duration(ageDays*24) * time.Hour),
		FriendsCount:     friends,
		FollowersCount:   followers,
		ListedCount:      lists,
		FavouritesCount:  favs,
		StatusesCount:    statuses,
		ProfileImageSeed: imgSeed,
		ProfileImageHash: w.hashAvatar(imagehash.Synthesize(imgSeed)),
		Kind:             KindNormal,
		CampaignID:       NoCampaign,
		HashtagCategory:  cat,
		TrendAffinity:    affinity,
		PreferredSource:  w.sampleSource(0.35, 0.5, 0.1),
	}
	a.TweetsPerHour = clampF(a.StatusesPerDay(w.start)/24*1.5, 0.02, 2.5)
	a.Suspended = rng.Float64() < 0.0005 // rare pre-existing false suspensions
	return a
}

// genSpammer creates a spam account: young, aggressive friending (high
// friends, low followers), third-party clients, a finite spam-message
// budget, and either shared campaign artefacts or — for lone wolves —
// organic-looking ones.
func (w *World) genSpammer(id AccountID, c *Campaign, now time.Time) *Account {
	rng := w.rng
	ageDays := logUniform(rng, 5, 500)
	friends := int(logUniform(rng, 50, 5000))
	followers := int(logUniform(rng, 1, 30)) // fresh fakes: nobody follows back

	a := &Account{
		ID:              id,
		Name:            w.gen.displayName(),
		CreatedAt:       now.Add(-time.Duration(ageDays*24) * time.Hour),
		FriendsCount:    friends,
		FollowersCount:  followers,
		ListedCount:     int(logUniform(rng, 1, 5)),
		FavouritesCount: int(logUniform(rng, 1, 50)),
		StatusesCount:   int(logUniform(rng, 50, 20000)),
		Kind:            KindSpammer,
		CampaignID:      c.ID,
		HashtagCategory: w.spammerHashtagCategory(),
		TrendAffinity:   w.spammerTrendAffinity(),
		PreferredSource: w.sampleSource(0.05, 0.15, 0.75),
	}
	if c.LoneWolf() {
		imgSeed := rng.Int63()
		a.ScreenName = w.gen.normalScreenName(id)
		a.Description = w.gen.benignDescription()
		a.ProfileImageSeed = imgSeed
		a.ProfileImageHash = w.hashAvatar(imagehash.Synthesize(imgSeed))
	} else {
		base := imagehash.Synthesize(c.BaseImageSeed)
		a.ScreenName = campaignName(c.NameShape, w.gen)
		a.Description = w.gen.campaignDescription(c.DescTemplate, c.URL(rng))
		a.DefaultProfileImage = rng.Float64() < 0.4
		a.ProfileImageSeed = c.BaseImageSeed
		avatar := imagehash.Perturb(base, 40, rng)
		if w.cfg.MutateCampaignImages {
			// Re-upload mutations: the platform thumbnail pipeline
			// resamples the image and a lossy round trip follows.
			// Deterministic, so no rng draws change.
			avatar = imagehash.Recompress(imagehash.Rescale(avatar, 48, 48), 60)
		}
		a.ProfileImageHash = w.hashAvatar(avatar)
	}
	a.spamBudget = w.drawSpamBudget()
	// Spam accounts post little organic content (camouflage only); they
	// receive almost no mentions, so they rarely reach Active status and
	// the screener's ActiveOnly selection passes them over.
	a.TweetsPerHour = clampF(a.StatusesPerDay(now)/24*0.3, 0.05, 1.5)
	c.MemberIDs = append(c.MemberIDs, id)
	return a
}

// drawSpamBudget draws the account's total spam-message budget:
// geometric with the configured mean, plus a rare burst-account tail.
func (w *World) drawSpamBudget() int {
	mean := w.cfg.SpamBudgetMean
	if mean < 1 {
		mean = 1
	}
	q := 1 - 1/mean // geometric continue-probability
	budget := 1
	for w.rng.Float64() < q && budget < 200 {
		budget++
	}
	if w.rng.Float64() < 0.01 {
		budget *= 8 // burst account
	}
	return budget
}

// spammerHashtagCategory mirrors the organic category mix with a tilt
// toward the high-traffic categories spammers favour.
func (w *World) spammerHashtagCategory() HashtagCategory {
	r := w.rng.Float64()
	switch {
	case r < 0.20:
		return HashtagGeneral
	case r < 0.40:
		return HashtagSocial
	case r < 0.55:
		return HashtagEntertainment
	case r < 0.67:
		return HashtagBusiness
	case r < 0.79:
		return HashtagTech
	case r < 0.86:
		return HashtagNone
	case r < 0.92:
		return HashtagEducation
	case r < 0.97:
		return HashtagEnvironment
	default:
		return HashtagAstrology
	}
}

// spammerTrendAffinity tilts spammers toward rising topics without making
// them uniform.
func (w *World) spammerTrendAffinity() TrendState {
	r := w.rng.Float64()
	switch {
	case r < 0.45:
		return TrendUp
	case r < 0.70:
		return TrendPopular
	case r < 0.85:
		return TrendDown
	default:
		return TrendNone
	}
}

// SpawnSpammer registers a freshly created spam account (campaign churn:
// burned accounts are replaced by new registrations). The new account
// joins a random existing campaign — or a new singleton one for lone
// wolves — and is targetable/active from the next engine hour.
func (w *World) SpawnSpammer(now time.Time) *Account {
	var c *Campaign
	if len(w.campaigns) == 0 || w.rng.Float64() < w.cfg.LoneWolfFraction {
		c = newLoneWolfCampaign(len(w.campaigns), w.rng)
		w.campaigns = append(w.campaigns, c)
	} else {
		c = w.campaigns[w.rng.Intn(len(w.campaigns))]
	}
	a := w.genSpammer(0, c, now)
	// Replacement accounts mix fresh registrations with purchased aged
	// accounts (Thomas et al., USENIX Sec'13).
	ageDays := logUniform(w.rng, 2, 400)
	a.CreatedAt = now.Add(-time.Duration(ageDays*24) * time.Hour)
	w.AddAccount(a)
	// genSpammer appended a placeholder id 0; fix the membership entry.
	c.MemberIDs[len(c.MemberIDs)-1] = a.ID
	return a
}

// AdvanceSuspensions fast-forwards the platform's suspension process by
// the given number of hours without generating traffic — the paper
// collected in March 2018 and labeled in September, by which time many
// more spam accounts had been suspended.
func (w *World) AdvanceSuspensions(hours float64, rng *rand.Rand) int {
	if hours <= 0 {
		return 0
	}
	pSpam := 1 - math.Pow(1-w.cfg.SuspensionRatePerHour, hours)
	pFalse := 1 - math.Pow(1-w.cfg.FalseSuspensionRatePerHour, hours)
	n := 0
	for _, a := range w.accounts {
		if a.Suspended {
			continue
		}
		p := pFalse
		if a.Kind == KindSpammer {
			p = pSpam
		}
		if p > 0 && rng.Float64() < p {
			a.Suspended = true
			n++
		}
	}
	w.profilesChanged()
	return n
}

// genSeed creates a trusted account: verified, old, huge audience.
func (w *World) genSeed(id AccountID) *Account {
	rng := w.rng
	ageDays := logUniform(rng, 1500, 4000)
	imgSeed := rng.Int63()
	a := &Account{
		ID:               id,
		ScreenName:       "official_" + w.gen.pick(_lastNames) + fmt.Sprintf("%d", rng.Intn(100)),
		Name:             w.gen.displayName(),
		Description:      "official account | " + w.gen.pick(_benignWords) + " news and updates",
		CreatedAt:        w.start.Add(-time.Duration(ageDays*24) * time.Hour),
		FriendsCount:     int(logUniform(rng, 100, 2000)),
		FollowersCount:   int(logUniform(rng, 50000, 2000000)),
		ListedCount:      int(logUniform(rng, 500, 5000)),
		FavouritesCount:  int(logUniform(rng, 100, 5000)),
		StatusesCount:    int(logUniform(rng, 5000, 100000)),
		Verified:         true,
		ProfileImageSeed: imgSeed,
		ProfileImageHash: w.hashAvatar(imagehash.Synthesize(imgSeed)),
		Kind:             KindSeed,
		CampaignID:       NoCampaign,
		HashtagCategory:  HashtagGeneral,
		TrendAffinity:    TrendPopular,
		PreferredSource:  SourceWeb,
	}
	a.TweetsPerHour = clampF(a.StatusesPerDay(w.start)/24, 0.1, 4)
	return a
}

// sampleSource draws a tweet source with the given web/mobile/third-party
// probabilities (remainder goes to SourceOther).
func (w *World) sampleSource(web, mobile, third float64) Source {
	r := w.rng.Float64()
	switch {
	case r < web:
		return SourceWeb
	case r < web+mobile:
		return SourceMobile
	case r < web+mobile+third:
		return SourceThirdParty
	default:
		return SourceOther
	}
}

// Attraction scores how strongly spammers are drawn to account a at instant
// now. The component weights are calibrated so that group-level garner
// efficiency reproduces the rankings of the paper's Tables V and VI: the
// activity-related attributes (lists/day, audience size, list membership)
// dominate, account age peaks near 1,000 days, low friend/follower ratios
// attract more spam, and social/general hashtag users plus trending-up
// posters are preferred.
func (w *World) Attraction(a *Account, now time.Time) float64 {
	if a.Suspended {
		return 0
	}
	score := 0.2 // base exposure of any account

	// Activity-derived attributes (strongest; Table VI ranks 1, 7, 9).
	ld := a.ListsPerDay(now)
	switch {
	case ld >= 1:
		score += 5.5 - 1.8*math.Min(ld-1, 2) // peak at 1/day, falling after
	default:
		score += 5.5 * math.Pow(ld, 1.1)
	}

	// Audience attributes (Table VI ranks 2, 3, 5). Cubic in the log
	// ratio: spammers concentrate sharply on the largest audiences.
	total := float64(a.FriendsCount + a.FollowersCount)
	score += 1.6 * cube(log10(total+1)/4.48)
	score += 1.3 * cube(log10(float64(a.FollowersCount)+1)/4.0)
	score += 1.2 * cube(log10(float64(a.FriendsCount)+1)/4.0)

	// List membership (rank 4).
	score += 1.25 * cube(log10(float64(a.ListedCount)+1)/2.7)

	// Favourites and statuses volume (ranks 6, 8).
	score += 0.9 * cube(log10(float64(a.FavouritesCount)+1)/5.3)
	score += 0.55 * cube(log10(float64(a.StatusesCount)+1)/5.3)

	// Friend/follower ratio: low ratios (big audiences) preferred (rank 10).
	ratio := a.FriendFollowerRatio()
	score += 0.35 * clampF(1-log10(ratio*10)/2, 0, 1)

	// Account age: mild peak near 1,000 days (paper Fig. 3(e)).
	age := a.AgeDays(now)
	if age > 0 {
		score += 0.3 * math.Exp(-sq(log10(age)-3)/(2*0.09))
	}

	// Hashtag category (paper Fig. 4 ordering).
	score += hashtagBoost(a.HashtagCategory)

	// Trending behaviour (paper Fig. 5 ordering).
	score += trendBoost(a.TrendAffinity)

	// Recent activity multiplier (paper §III-D: active accounts attract
	// spammers; dormant ones lose interest).
	if a.Active(now, 24*time.Hour) {
		score *= 1.3
	}
	return score
}

func hashtagBoost(c HashtagCategory) float64 {
	switch c {
	case HashtagSocial:
		return 1.20
	case HashtagGeneral:
		return 1.05
	case HashtagTech:
		return 0.95
	case HashtagBusiness:
		return 0.80
	case HashtagEntertainment:
		return 0.60
	case HashtagEducation:
		return 0.35
	case HashtagEnvironment:
		return 0.25
	case HashtagAstrology:
		return 0.15
	default:
		return 0.10
	}
}

func trendBoost(s TrendState) float64 {
	switch s {
	case TrendUp:
		return 1.10
	case TrendPopular:
		return 0.70
	case TrendDown:
		return 0.45
	default:
		return 0.15
	}
}

// logUniform draws from [lo, hi] uniformly in log space.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	if lo <= 0 {
		lo = 1e-9
	}
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// logNormal draws exp(N(mu, sigma^2)).
func logNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + rng.NormFloat64()*sigma)
}

func log10(x float64) float64 { return math.Log10(x) }

func sq(x float64) float64 { return x * x }

func cube(x float64) float64 { return x * x * x }

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// SortByAttr returns account indices sorted by the given numeric attribute
// evaluated at instant now. The screener uses this to binary-search sample
// values.
func (w *World) SortByAttr(attr func(*Account, time.Time) float64, now time.Time) []*Account {
	sorted := append([]*Account(nil), w.accounts...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return attr(sorted[i], now) < attr(sorted[j], now)
	})
	return sorted
}
