package features

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/simclock"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// Property: every extracted vector is finite-valued and the percentage
// features stay in [0, 1].
func TestVectorBoundsProperty(t *testing.T) {
	e := NewExtractor()
	sender := testAccount(1)
	receiver := testAccount(2)
	at := simclock.Epoch
	seq := socialnet.TweetID(0)

	prop := func(kindByte, srcByte uint8, text string, mention bool) bool {
		seq++
		at = at.Add(time.Minute)
		tw := &socialnet.Tweet{
			ID:        seq,
			AuthorID:  1,
			CreatedAt: at,
			Kind:      socialnet.TweetKind(int(kindByte)%3 + 1),
			Source:    socialnet.Source(int(srcByte)%socialnet.NumSources + 1),
			Text:      text,
		}
		o := Observation{Tweet: tw, Sender: sender}
		if mention {
			tw.Mentions = []socialnet.AccountID{2}
			o.Receiver = receiver
		}
		v := extract(e, o)
		pctIdx := []int{
			FBehaviorSenderTweetPct, FBehaviorSenderRetweetPct,
			FBehaviorSenderQuotePct, FBehaviorReceiverTweetPct,
			FBehaviorReceiverRetweetPct, FBehaviorReceiverQuotePct,
			FBehaviorSenderWebPct, FBehaviorSenderMobilePct,
			FBehaviorSenderThirdPct, FBehaviorSenderOtherPct,
			FBehaviorReceiverWebPct, FBehaviorReceiverMobilePct,
			FBehaviorReceiverThirdPct, FBehaviorReceiverOtherPct,
		}
		for _, i := range pctIdx {
			if v[i] < 0 || v[i] > 1 {
				return false
			}
		}
		for i := range v {
			if v[i] != v[i] { // NaN
				return false
			}
		}
		return v[FBehaviorMentionTime] >= 0 && v[FBehaviorMentionTime] <= 86400
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the sender's kind-percentage features always sum to ≤ 1 and,
// once the sender has history, to exactly 1.
func TestKindPctSumProperty(t *testing.T) {
	e := NewExtractor()
	sender := testAccount(1)
	at := simclock.Epoch
	for i := 1; i <= 50; i++ {
		at = at.Add(time.Minute)
		tw := &socialnet.Tweet{
			ID: socialnet.TweetID(i), AuthorID: 1, CreatedAt: at,
			Kind:   socialnet.TweetKind(i%3 + 1),
			Source: socialnet.SourceWeb,
			Text:   "t",
		}
		v := extract(e, Observation{Tweet: tw, Sender: sender})
		sum := v[FBehaviorSenderTweetPct] + v[FBehaviorSenderRetweetPct] +
			v[FBehaviorSenderQuotePct]
		if i == 1 {
			if sum != 0 {
				t.Fatalf("first observation has history sum %v", sum)
			}
			continue
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("observation %d kind pct sum %v", i, sum)
		}
	}
}

func TestExtractorIndependentPerInstance(t *testing.T) {
	a, b := NewExtractor(), NewExtractor()
	sender := testAccount(1)
	tw := testTweet(1, 1, simclock.Epoch, "same text")
	extract(a, Observation{Tweet: tw, Sender: sender})
	// Extractor b never saw the text: not repeated for it.
	v := extract(b, Observation{Tweet: testTweet(2, 1, simclock.Epoch, "same text"), Sender: sender})
	if v[FContentRepeated] != 0 {
		t.Fatal("extractors share repeated-text state")
	}
}

func TestMentionTimeClampedToDay(t *testing.T) {
	e := NewExtractor()
	honeypot := testAccount(2)
	// Post long ago.
	post := testTweet(1, 2, simclock.Epoch, "old post")
	extract(e, Observation{Tweet: post, Sender: honeypot})
	// Mention arrives a week later.
	mention := testTweet(2, 3, simclock.Epoch.Add(7*24*time.Hour), "@x hi")
	mention.Mentions = []socialnet.AccountID{2}
	v := extract(e, Observation{Tweet: mention, Sender: testAccount(3), Receiver: honeypot})
	if v[FBehaviorMentionTime] != 86400 {
		t.Fatalf("week-old mention time = %v, want clamped 86400", v[FBehaviorMentionTime])
	}
}

func TestNegativeMentionTimeClampedToZero(t *testing.T) {
	e := NewExtractor()
	honeypot := testAccount(2)
	post := testTweet(1, 2, simclock.Epoch.Add(time.Hour), "future post")
	extract(e, Observation{Tweet: post, Sender: honeypot})
	mention := testTweet(2, 3, simclock.Epoch, "@x hi") // earlier than post
	mention.Mentions = []socialnet.AccountID{2}
	v := extract(e, Observation{Tweet: mention, Sender: testAccount(3), Receiver: honeypot})
	if v[FBehaviorMentionTime] != 0 {
		t.Fatalf("negative mention time = %v, want 0", v[FBehaviorMentionTime])
	}
}
