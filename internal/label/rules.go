package label

import (
	"strings"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil"
)

// Keyword groups behind the paper's rule list (§IV-B): quick-money,
// adult content, deception/phishing, and follower-scam phrases.
var (
	_moneyKeywords = []string{
		"easy money", "free money", "quick cash", "earn $", "free bitcoin",
		"instant payout", "double your income", "make money from home",
	}
	_adultKeywords = []string{
		"hot singles", "adult cam", "xxx", "18+ only",
	}
	_deceptionKeywords = []string{
		"verify your password", "confirm your login", "claim with your bank",
		"account will be suspended", "you have won a prize",
	}
	_scamKeywords = []string{
		"buy cheap followers", "get 1000 followers", "follow train",
		"free iphone giveaway", "miracle diet pills", "replica watches",
	}
)

// labelRules applies the paper's rule-based labeling to the not-yet-labeled
// remainder: malicious URLs, repetitive content, keyword rules, and the
// seed-account whitelist. norms[i] is normalizedKey(c.Tweets[i]).
func (p *Pipeline) labelRules(c *Corpus, r *Result, norms []string) {
	// Repetition counting over normalized, mention-stripped text.
	repeats := make(map[string]int, len(c.Tweets))
	for _, key := range norms {
		repeats[key]++
	}

	for i, t := range c.Tweets {
		if _, ok := r.SpamTweets[t.ID]; ok {
			continue
		}
		if _, ok := r.HamTweets[t.ID]; ok {
			continue
		}
		author := c.Users[t.AuthorID]

		// Seed whitelist: trusted accounts' tweets are non-spam.
		if author != nil && isSeedAccount(author) {
			r.HamTweets[t.ID] = MethodRule
			if _, ok := r.Spammers[t.AuthorID]; !ok {
				r.Benign[t.AuthorID] = MethodRule
			}
			continue
		}

		if !ruleSpam(t, norms[i], repeats, p.cfg.RepeatThreshold) {
			continue
		}
		r.SpamTweets[t.ID] = MethodRule
		if _, ok := r.Spammers[t.AuthorID]; !ok {
			r.Spammers[t.AuthorID] = MethodRule
		}
	}
}

// ruleSpam reports whether any rule fires on the tweet, whose
// normalizedKey is key.
func ruleSpam(t *socialnet.Tweet, key string, repeats map[string]int, repeatThreshold int) bool {
	if hasMaliciousURL(t) {
		return true
	}
	if len(key) >= 20 && repeats[key] >= repeatThreshold {
		return true
	}
	text := strings.ToLower(t.Text)
	for _, group := range [][]string{
		_moneyKeywords, _adultKeywords, _deceptionKeywords, _scamKeywords,
	} {
		for _, kw := range group {
			if strings.Contains(text, kw) {
				return true
			}
		}
	}
	return false
}

// hasMaliciousURL checks the tweet's URLs and text against the blocklist —
// the simulated equivalent of the URL-reputation services the paper cites.
func hasMaliciousURL(t *socialnet.Tweet) bool {
	for _, u := range t.URLs {
		for _, domain := range socialnet.MaliciousDomains {
			if strings.Contains(u, domain) {
				return true
			}
		}
	}
	for _, domain := range socialnet.MaliciousDomains {
		if strings.Contains(t.Text, domain) {
			return true
		}
	}
	return false
}

// isSeedAccount reports whether the account qualifies as a trusted seed:
// verified with a large audience (governments, companies, public figures).
func isSeedAccount(a *socialnet.Account) bool {
	return a.Verified && a.FollowersCount >= 10000
}

func normalizedKey(t *socialnet.Tweet) string {
	return textutil.NormalizeDescription(stripMentions(t.Text))
}

// manualCheck simulates the paper's final human pass: verify every rough
// label against the oracle (flipping mistakes, e.g. falsely suspended
// benign users), then spend the remaining budget labeling a sample of the
// unlabeled tweets.
func (p *Pipeline) manualCheck(c *Corpus, r *Result, oracle Oracle) {
	if oracle == nil {
		return
	}
	// Verify labeled users.
	for id := range r.Spammers {
		r.ManualChecks++
		if !oracle.UserIsSpammer(id) {
			delete(r.Spammers, id)
			r.Benign[id] = MethodManual
		}
	}
	// Verify labeled spam tweets; drop those whose author was cleared
	// or that the oracle rejects.
	for id, t := range indexTweets(c) {
		if _, ok := r.SpamTweets[id]; !ok {
			continue
		}
		r.ManualChecks++
		if !oracle.TweetIsSpam(t) {
			delete(r.SpamTweets, id)
			r.HamTweets[id] = MethodManual
		}
	}

	// Label a budgeted sample of unlabeled tweets.
	budget := p.cfg.ManualBudget
	if budget <= 0 {
		budget = len(c.Tweets) / 10
	}
	unlabeled := make([]*socialnet.Tweet, 0, len(c.Tweets))
	for _, t := range c.Tweets {
		if _, ok := r.SpamTweets[t.ID]; ok {
			continue
		}
		if _, ok := r.HamTweets[t.ID]; ok {
			continue
		}
		unlabeled = append(unlabeled, t)
	}
	p.rng.Shuffle(len(unlabeled), func(i, j int) {
		unlabeled[i], unlabeled[j] = unlabeled[j], unlabeled[i]
	})
	if budget > len(unlabeled) {
		budget = len(unlabeled)
	}
	for _, t := range unlabeled[:budget] {
		r.ManualChecks++
		if oracle.TweetIsSpam(t) {
			r.SpamTweets[t.ID] = MethodManual
			if _, ok := r.Spammers[t.AuthorID]; !ok {
				r.Spammers[t.AuthorID] = MethodManual
			}
		} else {
			r.HamTweets[t.ID] = MethodManual
		}
	}
}

func indexTweets(c *Corpus) map[socialnet.TweetID]*socialnet.Tweet {
	idx := make(map[socialnet.TweetID]*socialnet.Tweet, len(c.Tweets))
	for _, t := range c.Tweets {
		idx[t.ID] = t
	}
	return idx
}
