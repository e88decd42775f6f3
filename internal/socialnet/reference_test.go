package socialnet

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"
)

// This file keeps the definitions the simulator's hot paths replaced, as
// their oracles: the fmt/strings text generator, and Attraction computed
// from the profile counts on every call.

// fmtTextGen is textGen as it was written with fmt.Sprintf and string
// concatenation. Every method makes the same draws, in the same order, as
// its textGen counterpart and must return the same bytes.
type fmtTextGen struct {
	rng *rand.Rand
}

func (g *fmtTextGen) pick(list []string) string {
	return list[g.rng.Intn(len(list))]
}

func (g *fmtTextGen) normalScreenName(id AccountID) string {
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

func (g *fmtTextGen) campaignName(shape int) string {
	first := g.pick(_firstNames)
	last := g.pick(_lastNames)
	switch shape % numNameShapes {
	case 0:
		return fmt.Sprintf("%s_%s%02d",
			strings.ToUpper(first[:1])+first[1:], last, g.rng.Intn(100))
	case 1:
		return first + "." + last + string(rune('0'+g.rng.Intn(10))) +
			string(rune('0'+g.rng.Intn(10))) + string(rune('0'+g.rng.Intn(10)))
	default:
		return "x" + first + "_" + last + "_x"
	}
}

func (g *fmtTextGen) seedScreenName() string {
	return "official_" + g.pick(_lastNames) + fmt.Sprintf("%d", g.rng.Intn(100))
}

func (g *fmtTextGen) displayName() string {
	first := g.pick(_firstNames)
	last := g.pick(_lastNames)
	return strings.ToUpper(first[:1]) + first[1:] + " " +
		strings.ToUpper(last[:1]) + last[1:]
}

func (g *fmtTextGen) benignDescription() string {
	tpl := g.pick(_benignDescTemplates)
	desc := fmt.Sprintf(tpl, g.pick(_benignWords), g.pick(_benignWords))
	return desc + fmt.Sprintf(" | %s %s %d", g.pick(_benignWords),
		g.pick(_lastNames), g.rng.Intn(100))
}

func (g *fmtTextGen) campaignDescription(tpl, url string) string {
	desc := fmt.Sprintf(tpl, url)
	if g.rng.Intn(3) == 0 {
		desc += " " + g.pick([]string{"!!", "<3", "~", "dm us"})
	}
	return desc
}

func (g *fmtTextGen) benignTweet() string {
	tpl := g.pick(_benignTemplates)
	return fmt.Sprintf(tpl, g.pick(_benignWords), g.pick(_benignWords)) +
		g.benignTail()
}

func (g *fmtTextGen) benignReply() string {
	tpl := g.pick(_benignReplyTemplates)
	return fmt.Sprintf(tpl, g.pick(_benignWords)) + g.benignTail()
}

func (g *fmtTextGen) benignTail() string {
	words := make([]string, 4+g.rng.Intn(4))
	for i := range words {
		words[i] = g.pick(_benignWords)
	}
	return fmt.Sprintf(" (%s %s %d)", strings.Join(words, " "),
		g.pick(_firstNames), g.rng.Intn(1000))
}

func (g *fmtTextGen) loneWolfTweet(tpl, url string, withURL bool) string {
	text := fmt.Sprintf(tpl, g.pick(_benignWords), g.pick(_benignWords))
	if withURL {
		text += " " + url
	}
	return text
}

func (g *fmtTextGen) campaignTweet(tpl, url string) string {
	text := fmt.Sprintf(tpl, url)
	if g.rng.Intn(4) == 0 {
		text += " " + g.pick([]string{"!!!", "act now", "today only", "hurry"})
	}
	return text
}

// attractionUncached is World.Attraction with every term computed from the
// profile on the spot.
func attractionUncached(a *Account, now time.Time) float64 {
	if a.Suspended {
		return 0
	}
	score := 0.2
	ld := a.ListsPerDay(now)
	switch {
	case ld >= 1:
		score += 5.5 - 1.8*math.Min(ld-1, 2)
	default:
		score += 5.5 * math.Pow(ld, 1.1)
	}
	total := float64(a.FriendsCount + a.FollowersCount)
	score += 1.6 * cube(log10(total+1)/4.48)
	score += 1.3 * cube(log10(float64(a.FollowersCount)+1)/4.0)
	score += 1.2 * cube(log10(float64(a.FriendsCount)+1)/4.0)
	score += 1.25 * cube(log10(float64(a.ListedCount)+1)/2.7)
	score += 0.9 * cube(log10(float64(a.FavouritesCount)+1)/5.3)
	score += 0.55 * cube(log10(float64(a.StatusesCount)+1)/5.3)
	ratio := a.FriendFollowerRatio()
	score += 0.35 * clampF(1-log10(ratio*10)/2, 0, 1)
	age := a.AgeDays(now)
	if age > 0 {
		score += 0.3 * math.Exp(-sq(log10(age)-3)/(2*0.09))
	}
	score += hashtagBoost(a.HashtagCategory)
	score += trendBoost(a.TrendAffinity)
	if a.Active(now, 24*time.Hour) {
		score *= 1.3
	}
	return score
}

// sampleWithPool is TrendSet.Sample as it was written, collecting the
// matching topics into a slice first.
func sampleWithPool(ts *TrendSet, state TrendState) *Topic {
	var pool []*Topic
	for _, t := range ts.topics {
		if t.State == state {
			pool = append(pool, t)
		}
	}
	if len(pool) == 0 {
		pool = ts.topics
	}
	total := 0.0
	for _, t := range pool {
		total += t.Volume
	}
	r := ts.rng.Float64() * total
	for _, t := range pool {
		r -= t.Volume
		if r <= 0 {
			return t
		}
	}
	return pool[len(pool)-1]
}
