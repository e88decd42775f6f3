package socialnet

import (
	"fmt"
	"math/rand"
	"strconv"
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
// A text is written into one reused buffer — the templates hold only %s
// verbs, so fill needs no fmt — and the returned string is its only
// allocation.
type textGen struct {
	rng *rand.Rand
	// buf holds the text being built: empty between texts, except after
	// mention, whose prefix the next text starts with.
	buf []byte
}

func newTextGen(rng *rand.Rand) *textGen {
	return &textGen{rng: rng}
}

func (g *textGen) pick(list []string) string {
	return list[g.rng.Intn(len(list))]
}

// put appends strs to the text being built.
func (g *textGen) put(strs ...string) {
	for _, s := range strs {
		g.buf = append(g.buf, s...)
	}
}

// putInt appends v in decimal.
func (g *textGen) putInt(v int64) {
	g.buf = strconv.AppendInt(g.buf, v, 10)
}

// putTitle appends word with its first byte upper-cased; the name lists
// are lower-case ASCII.
func (g *textGen) putTitle(word string) {
	c := word[0]
	if 'a' <= c && c <= 'z' {
		c -= 'a' - 'A'
	}
	g.buf = append(append(g.buf, c), word[1:]...)
}

// fill appends tpl with its %s verbs replaced by args in order: what
// fmt.Sprintf writes when a template's only verbs are as many %s as there
// are string args, which holds for every template in this file.
func (g *textGen) fill(tpl string, args ...string) {
	for _, arg := range args {
		i := strings.Index(tpl, "%s")
		g.put(tpl[:i], arg)
		tpl = tpl[i+2:]
	}
	g.put(tpl)
}

// text returns the text built and empties the buffer for the next one.
func (g *textGen) text() string {
	s := string(g.buf)
	g.buf = g.buf[:0]
	return s
}

// mention starts the next text with "@name ".
func (g *textGen) mention(name string) {
	g.put("@", name, " ")
}

// normalScreenName makes an organic, varied screen name.
func (g *textGen) normalScreenName(id AccountID) string {
	first := g.pick(_firstNames)
	last := g.pick(_lastNames)
	g.put(first)
	switch g.rng.Intn(4) {
	case 0:
		g.put(last)
	case 1:
		g.put("_", last)
	case 2:
		g.put(last)
		g.putInt(int64(g.rng.Intn(100)))
	default:
		g.put("_")
		g.putInt(int64(id) % 10000)
	}
	return g.text()
}

// campaignScreenName instantiates a campaign naming template: shared
// Σ-Seq shape (capitalized word, separator, lowercase word, digits) with
// varying words, so the label pipeline's pattern clustering groups them.
func (g *textGen) campaignScreenName() string {
	first := g.pick(_firstNames)
	last := g.pick(_lastNames)
	g.putTitle(first)
	g.put("_", last)
	n := g.rng.Intn(100)
	if n < 10 {
		g.put("0") // %02d
	}
	g.putInt(int64(n))
	return g.text()
}

// dottedScreenName is campaign naming shape 1: first.last and three digits.
func (g *textGen) dottedScreenName() string {
	first := g.pick(_firstNames)
	last := g.pick(_lastNames)
	g.put(first, ".", last)
	for i := 0; i < 3; i++ {
		g.putInt(int64(g.rng.Intn(10)))
	}
	return g.text()
}

// wrappedScreenName is campaign naming shape 2: xfirst_last_x.
func (g *textGen) wrappedScreenName() string {
	first := g.pick(_firstNames)
	last := g.pick(_lastNames)
	g.put("x", first, "_", last, "_x")
	return g.text()
}

// seedScreenName is a trusted account's name: official_, a surname and a
// number.
func (g *textGen) seedScreenName() string {
	g.put("official_", g.pick(_lastNames))
	g.putInt(int64(g.rng.Intn(100)))
	return g.text()
}

func (g *textGen) displayName() string {
	first := g.pick(_firstNames)
	last := g.pick(_lastNames)
	g.putTitle(first)
	g.put(" ")
	g.putTitle(last)
	return g.text()
}

func (g *textGen) benignDescription() string {
	tpl := g.pick(_benignDescTemplates)
	g.fill(tpl, g.pick(_benignWords), g.pick(_benignWords))
	// Personal entropy keeps organic descriptions from near-duplicating
	// each other — only campaign descriptions should MinHash-cluster.
	g.put(" | ", g.pick(_benignWords), " ", g.pick(_lastNames), " ")
	g.putInt(int64(g.rng.Intn(100)))
	return g.text()
}

// campaignDescription instantiates the campaign's description template with
// minor variation, producing MinHash near-duplicates.
func (g *textGen) campaignDescription(tpl, url string) string {
	g.fill(tpl, url)
	// Small variation: occasionally append a short suffix.
	if g.rng.Intn(3) == 0 {
		g.put(" ", g.pick([]string{"!!", "<3", "~", "dm us"}))
	}
	return g.text()
}

func (g *textGen) benignTweet() string {
	tpl := g.pick(_benignTemplates)
	g.fill(tpl, g.pick(_benignWords), g.pick(_benignWords))
	g.putTail()
	return g.text()
}

func (g *textGen) benignReply() string {
	g.putReply()
	return g.text()
}

// benignQuote is a benign reply commenting on the quoted text.
func (g *textGen) benignQuote(quoted string) string {
	g.putReply()
	g.put(" // ", quoted)
	return g.text()
}

// putReply appends a benign reply and its tail.
func (g *textGen) putReply() {
	tpl := g.pick(_benignReplyTemplates)
	g.fill(tpl, g.pick(_benignWords))
	g.putTail()
}

// putTail appends enough personal entropy that two organic tweets from the
// same template land below the near-duplicate thresholds — real benign
// tweets are almost never near-duplicates of each other, and the labeling
// pipeline's tweet clustering relies on that.
func (g *textGen) putTail() {
	g.put(" (")
	n := 4 + g.rng.Intn(4)
	for i := 0; i < n; i++ {
		if i > 0 {
			g.put(" ")
		}
		g.put(g.pick(_benignWords))
	}
	g.put(" ", g.pick(_firstNames), " ")
	g.putInt(int64(g.rng.Intn(1000)))
	g.put(")")
}

// loneWolfTweet instantiates a solo spammer's template: two filler words
// break near-duplicate clustering, and the malicious URL is attached only
// sometimes, so a share of lone-wolf spam evades both the URL rule and the
// keyword rules.
func (g *textGen) loneWolfTweet(tpl, url string, withURL bool) string {
	g.fill(tpl, g.pick(_benignWords), g.pick(_benignWords))
	if withURL {
		g.put(" ", url)
	}
	return g.text()
}

// campaignTweet instantiates one of the campaign's text templates with its
// URL; near-duplicate across the campaign by construction.
func (g *textGen) campaignTweet(tpl, url string) string {
	g.fill(tpl, url)
	if g.rng.Intn(4) == 0 {
		g.put(" ", g.pick([]string{"!!!", "act now", "today only", "hurry"}))
	}
	return g.text()
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
