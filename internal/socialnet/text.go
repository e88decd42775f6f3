package socialnet

import (
	"fmt"
	"math/rand"
	"strings"
)

// HashtagCategory is one of the paper's eight hashtag-based attribute
// categories (Table I, C2) plus "no hashtag".
type HashtagCategory int

// Hashtag categories.
const (
	HashtagNone HashtagCategory = iota + 1
	HashtagEntertainment
	HashtagGeneral
	HashtagBusiness
	HashtagTech
	HashtagEducation
	HashtagEnvironment
	HashtagSocial
	HashtagAstrology
)

// HashtagCategories lists every category with hashtags (excludes
// HashtagNone) in presentation order.
var HashtagCategories = []HashtagCategory{
	HashtagEntertainment, HashtagGeneral, HashtagBusiness, HashtagTech,
	HashtagEducation, HashtagEnvironment, HashtagSocial, HashtagAstrology,
}

func (c HashtagCategory) String() string {
	switch c {
	case HashtagNone:
		return "no hashtag"
	case HashtagEntertainment:
		return "entertainment"
	case HashtagGeneral:
		return "general"
	case HashtagBusiness:
		return "business"
	case HashtagTech:
		return "tech"
	case HashtagEducation:
		return "education"
	case HashtagEnvironment:
		return "environment"
	case HashtagSocial:
		return "social"
	case HashtagAstrology:
		return "astrology"
	default:
		return "unknown"
	}
}

// topHashtags is the simulated stand-in for the hashtag-analytics feed the
// paper cites ([9]): the top-10 hashtags of each category.
var topHashtags = map[HashtagCategory][]string{
	HashtagEntertainment: {
		"movies", "music", "netflix", "gaming", "celebrity",
		"tv", "concert", "oscars", "hiphop", "comedy",
	},
	HashtagGeneral: {
		"love", "life", "happy", "photooftheday", "follow",
		"monday", "weekend", "smile", "fun", "news",
	},
	HashtagBusiness: {
		"business", "marketing", "startup", "entrepreneur", "finance",
		"sales", "money", "investing", "smallbiz", "leadership",
	},
	HashtagTech: {
		"tech", "ai", "coding", "developer", "cybersecurity",
		"cloud", "iot", "bigdata", "blockchain", "software",
	},
	HashtagEducation: {
		"education", "learning", "students", "teachers", "science",
		"study", "college", "stem", "research", "school",
	},
	HashtagEnvironment: {
		"climate", "environment", "sustainability", "nature", "recycle",
		"green", "wildlife", "ocean", "solar", "earth",
	},
	HashtagSocial: {
		"social", "community", "friends", "family", "charity",
		"volunteer", "together", "support", "kindness", "hope",
	},
	HashtagAstrology: {
		"astrology", "zodiac", "horoscope", "tarot", "scorpio",
		"leo", "gemini", "fullmoon", "retrograde", "aries",
	},
}

var (
	_firstNames = []string{
		"alex", "sam", "jordan", "taylor", "casey", "morgan", "riley",
		"jamie", "drew", "quinn", "maria", "juan", "wei", "aisha",
		"liam", "emma", "noah", "olivia", "ethan", "sofia", "lucas",
		"mia", "amir", "nina", "kai", "zoe", "ivan", "lena", "omar",
		"rosa",
	}
	_lastNames = []string{
		"smith", "jones", "garcia", "chen", "patel", "kim", "nguyen",
		"brown", "davis", "miller", "wilson", "moore", "clark", "lewis",
		"walker", "hall", "young", "king", "wright", "scott", "lopez",
		"hill", "green", "adams", "baker", "nelson", "carter", "turner",
		"reed", "cook",
	}
	_benignWords = []string{
		"coffee", "morning", "game", "team", "book", "project", "city",
		"photo", "trip", "dinner", "friends", "music", "garden", "movie",
		"meeting", "weather", "beach", "run", "class", "recipe", "dog",
		"cat", "bike", "park", "train", "lunch", "weekend", "concert",
		"match", "season",
	}
	_benignTemplates = []string{
		"just had the best %s with my %s today",
		"anyone else excited about the %s this %s?",
		"finally finished my %s — time for some %s",
		"great %s today, the %s was amazing",
		"thinking about the %s again, what a %s",
		"can't believe the %s happened during the %s",
		"my %s is getting better every %s",
		"sharing some thoughts on the %s and the %s",
		"what a day for a %s, perfect %s vibes",
		"looking forward to the %s with the whole %s crew",
	}
	_benignReplyTemplates = []string{
		"totally agree with your point about the %s!",
		"thanks for sharing this, the %s part really helped",
		"congrats! the %s looks wonderful",
		"haha this made my day, especially the %s",
		"interesting take — have you considered the %s angle?",
		"hope your %s goes well this week",
		"this is why i follow you, great %s content",
		"saw your post about the %s, so true",
	}
	_benignDescTemplates = []string{
		"%s lover | %s enthusiast | views my own",
		"writing about %s and %s since forever",
		"%s fan. %s addict. human.",
		"proud parent, part-time %s expert, full-time %s person",
		"exploring the world of %s one %s at a time",
		"just here for the %s and the occasional %s",
	}
)

// spamTextKind enumerates the spam content archetypes the rule-based
// labeler recognizes (paper §IV-B rule list).
type spamTextKind int

const (
	spamMoney spamTextKind = iota + 1
	spamAdult
	spamPhishing
	spamPromo
	spamFollowerScam
)

var _spamTextKinds = []spamTextKind{
	spamMoney, spamAdult, spamPhishing, spamPromo, spamFollowerScam,
}

// spamTemplates are campaign text templates; %s receives a campaign URL.
// They intentionally contain the lexical signals (money, adult, urgency,
// follower-scam phrases) that the paper's rules key on.
var _spamTemplates = map[spamTextKind][]string{
	spamMoney: {
		"make easy money from home, earn $500 a day fast %s",
		"quick cash guaranteed, free money no work needed %s",
		"win free bitcoin today, instant payout %s",
		"double your income overnight with this secret trick %s",
	},
	spamAdult: {
		"hot singles in your area want to meet you tonight %s",
		"adult cam show free access click now %s",
		"xxx exclusive content waiting for you %s",
	},
	spamPhishing: {
		"your account will be suspended, verify your password now %s",
		"security alert: confirm your login details here %s",
		"you have won a prize, claim with your bank details %s",
	},
	spamPromo: {
		"buy cheap followers now, limited offer %s",
		"best replica watches huge discount today only %s",
		"miracle diet pills lose 10 pounds in a week %s",
		"free iphone giveaway retweet and click %s",
	},
	spamFollowerScam: {
		"follow me and get 1000 followers back instantly %s",
		"gain followers fast, follow train click here %s",
	},
}

// _loneWolfTemplates are used by solo spammers. The two %s slots take
// random filler words so instances do not MinHash-cluster; roughly half
// carry the lexical signals the rule-based labeler keys on, the rest are
// subtle (deceptive without keywords) and only manual checking finds them.
var _loneWolfTemplates = []string{
	"quick cash for %s and %s fans, message me now",
	"earn $300 daily with this %s trick, no %s needed",
	"my %s diet worked miracle, lose weight like a %s",
	"i found this amazing %s opportunity, you should really see the %s",
	"this %s changed my life, ask me about the %s",
	"selling my secret %s method, serious %s people only",
	"dm me for the %s thing everyone in %s is talking about",
	"free bitcoin drop for %s lovers, %s holders welcome",
}

var _spamDescTemplates = []string{
	"official promo account | best deals | dm for collab %s",
	"we help you earn money online fast | click the link %s",
	"free followers and likes | join now %s",
	"exclusive adult content | 18+ only | link below %s",
}

// textGen produces account names, descriptions, and tweet text. All methods
// draw from the provided rng so generation is deterministic per world seed.
type textGen struct {
	rng *rand.Rand
}

func newTextGen(rng *rand.Rand) *textGen {
	return &textGen{rng: rng}
}

func (g *textGen) pick(list []string) string {
	return list[g.rng.Intn(len(list))]
}

// normalScreenName makes an organic, varied screen name.
func (g *textGen) normalScreenName(id AccountID) string {
	first := g.pick(_firstNames)
	last := g.pick(_lastNames)
	switch g.rng.Intn(4) {
	case 0:
		return first + last
	case 1:
		return first + "_" + last
	case 2:
		return fmt.Sprintf("%s%s%d", first, last, g.rng.Intn(100))
	default:
		return fmt.Sprintf("%s_%d", first, int64(id)%10000)
	}
}

// campaignScreenName instantiates a campaign naming template: shared
// Σ-Seq shape (capitalized word, separator, lowercase word, digits) with
// varying words, so the label pipeline's pattern clustering groups them.
func (g *textGen) campaignScreenName() string {
	first := g.pick(_firstNames)
	last := g.pick(_lastNames)
	return fmt.Sprintf("%s_%s%02d",
		strings.ToUpper(first[:1])+first[1:], last, g.rng.Intn(100))
}

func (g *textGen) displayName() string {
	first := g.pick(_firstNames)
	last := g.pick(_lastNames)
	return strings.ToUpper(first[:1]) + first[1:] + " " +
		strings.ToUpper(last[:1]) + last[1:]
}

func (g *textGen) benignDescription() string {
	tpl := g.pick(_benignDescTemplates)
	desc := fmt.Sprintf(tpl, g.pick(_benignWords), g.pick(_benignWords))
	// Personal entropy keeps organic descriptions from near-duplicating
	// each other — only campaign descriptions should MinHash-cluster.
	return desc + fmt.Sprintf(" | %s %s %d", g.pick(_benignWords),
		g.pick(_lastNames), g.rng.Intn(100))
}

// campaignDescription instantiates the campaign's description template with
// minor variation, producing MinHash near-duplicates.
func (g *textGen) campaignDescription(tpl, url string) string {
	desc := fmt.Sprintf(tpl, url)
	// Small variation: occasionally append a short suffix.
	if g.rng.Intn(3) == 0 {
		desc += " " + g.pick([]string{"!!", "<3", "~", "dm us"})
	}
	return desc
}

func (g *textGen) benignTweet() string {
	tpl := g.pick(_benignTemplates)
	return fmt.Sprintf(tpl, g.pick(_benignWords), g.pick(_benignWords)) +
		g.benignTail()
}

func (g *textGen) benignReply() string {
	tpl := g.pick(_benignReplyTemplates)
	return fmt.Sprintf(tpl, g.pick(_benignWords)) + g.benignTail()
}

// benignTail appends enough personal entropy that two organic tweets from
// the same template land below the near-duplicate thresholds — real benign
// tweets are almost never near-duplicates of each other, and the labeling
// pipeline's tweet clustering relies on that.
func (g *textGen) benignTail() string {
	words := make([]string, 4+g.rng.Intn(4))
	for i := range words {
		words[i] = g.pick(_benignWords)
	}
	return fmt.Sprintf(" (%s %s %d)", strings.Join(words, " "),
		g.pick(_firstNames), g.rng.Intn(1000))
}

// loneWolfTweet instantiates a solo spammer's template: two filler words
// break near-duplicate clustering, and the malicious URL is attached only
// sometimes, so a share of lone-wolf spam evades both the URL rule and the
// keyword rules.
func (g *textGen) loneWolfTweet(tpl, url string, withURL bool) string {
	text := fmt.Sprintf(tpl, g.pick(_benignWords), g.pick(_benignWords))
	if withURL {
		text += " " + url
	}
	return text
}

// campaignTweet instantiates one of the campaign's text templates with its
// URL; near-duplicate across the campaign by construction.
func (g *textGen) campaignTweet(tpl, url string) string {
	text := fmt.Sprintf(tpl, url)
	if g.rng.Intn(4) == 0 {
		text += " " + g.pick([]string{"!!!", "act now", "today only", "hurry"})
	}
	return text
}

// maliciousURL fabricates a campaign URL on a known-bad domain pattern.
func maliciousURL(rng *rand.Rand) string {
	domains := []string{
		"spam-click.example", "free-cash.example", "win-big.example",
		"hot-meet.example", "verify-acct.example",
	}
	return fmt.Sprintf("http://%s/%06x",
		domains[rng.Intn(len(domains))], rng.Intn(1<<24))
}

// MaliciousDomains lists the domains used by campaign URL pools. The
// rule-based labeler treats URLs on these domains as malicious — the
// simulated equivalent of a URL blocklist service.
var MaliciousDomains = []string{
	"spam-click.example", "free-cash.example", "win-big.example",
	"hot-meet.example", "verify-acct.example",
}
