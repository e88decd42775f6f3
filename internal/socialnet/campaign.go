package socialnet

import (
	"math/rand"
)

// Campaign is a coordinated group of spam accounts. Members share the
// artefacts real campaigns share — a base profile image, a description
// template, tweet text templates, and a pool of malicious URLs — which is
// exactly what the paper's clustering-based labeler keys on (§IV-B).
type Campaign struct {
	ID int

	// BaseImageSeed generates the shared avatar; members perturb it.
	BaseImageSeed int64

	// NameShape selects one of the campaign naming-template shapes, so
	// member screen names collapse to the same Σ-Seq class sequence.
	NameShape int

	// DescTemplate is the shared profile-description template (%s takes
	// a campaign URL).
	DescTemplate string

	// TextKind is the spam content archetype (money, adult, phishing,
	// promo, follower scam).
	TextKind spamTextKind

	// TextTemplates are the tweet templates members instantiate.
	TextTemplates []string

	// URLPool is the campaign's malicious link pool.
	URLPool []string

	// ReactionDelayMeanSeconds is the campaign's mean reaction time to a
	// victim's post; spammers react within minutes, far faster than the
	// organic reply delays (paper §IV-A, the mention-time feature).
	ReactionDelayMeanSeconds float64

	// MemberIDs lists the campaign's accounts.
	MemberIDs []AccountID

	// loneWolf marks singleton solo-spammer campaigns.
	loneWolf bool
}

// newCampaign creates campaign number id with artefacts drawn from rng.
func newCampaign(id int, rng *rand.Rand) *Campaign {
	kind := _spamTextKinds[rng.Intn(len(_spamTextKinds))]
	urls := make([]string, 2+rng.Intn(3))
	for i := range urls {
		urls[i] = maliciousURL(rng)
	}
	return &Campaign{
		ID:                       id,
		BaseImageSeed:            rng.Int63(),
		NameShape:                rng.Intn(numNameShapes),
		DescTemplate:             _spamDescTemplates[rng.Intn(len(_spamDescTemplates))],
		TextKind:                 kind,
		TextTemplates:            append([]string(nil), _spamTemplates[kind]...),
		URLPool:                  urls,
		ReactionDelayMeanSeconds: 30 + rng.Float64()*150,
	}
}

// URL returns a random URL from the campaign pool.
func (c *Campaign) URL(rng *rand.Rand) string {
	return c.URLPool[rng.Intn(len(c.URLPool))]
}

// Template returns a random tweet template from the campaign pool.
func (c *Campaign) Template(rng *rand.Rand) string {
	return c.TextTemplates[rng.Intn(len(c.TextTemplates))]
}

// newLoneWolfCampaign fabricates a singleton "campaign" for a solo
// spammer: a private text template with filler-word slots (so instances do
// not near-duplicate-cluster across spammers), a small URL pool used only
// probabilistically, and a personal reaction delay.
func newLoneWolfCampaign(id int, rng *rand.Rand) *Campaign {
	return &Campaign{
		ID:                       id,
		BaseImageSeed:            rng.Int63(),
		NameShape:                -1, // organic naming
		DescTemplate:             "",
		TextKind:                 _spamTextKinds[rng.Intn(len(_spamTextKinds))],
		TextTemplates:            []string{_loneWolfTemplates[rng.Intn(len(_loneWolfTemplates))]},
		URLPool:                  []string{maliciousURL(rng)},
		ReactionDelayMeanSeconds: 40 + rng.Float64()*200,
		loneWolf:                 true,
	}
}

// LoneWolf reports whether the campaign is a singleton solo spammer.
func (c *Campaign) LoneWolf() bool { return c.loneWolf }

// numNameShapes is the number of distinct campaign naming-template shapes.
const numNameShapes = 3

// campaignName instantiates the campaign's naming template. All members of
// one campaign share a Σ-Seq shape while varying the concrete words.
func campaignName(shape int, g *textGen) string {
	switch shape % numNameShapes {
	case 0:
		return g.campaignScreenName() // First_last##
	case 1:
		return g.dottedScreenName() // first.last###
	default:
		return g.wrappedScreenName() // xfirst_last_x
	}
}
