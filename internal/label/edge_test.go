package label

import (
	"testing"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

func TestPipelineEmptyCorpus(t *testing.T) {
	p := newPipeline(DefaultConfig())
	c := &Corpus{Users: map[socialnet.AccountID]*socialnet.Account{}}
	r := p.Run(c, nil)
	if r.TotalSpams() != 0 || r.TotalSpammers() != 0 {
		t.Fatal("empty corpus produced labels")
	}
	counts := r.Counts()
	for _, mc := range counts {
		if mc.Spams != 0 || mc.Spammers != 0 {
			t.Fatal("empty corpus has non-zero method counts")
		}
	}
}

func TestNewCorpusSkipsUnknownAuthors(t *testing.T) {
	tweets := []*socialnet.Tweet{
		{ID: 1, AuthorID: 1},
		{ID: 2, AuthorID: 2},
	}
	known := map[socialnet.AccountID]*socialnet.Account{
		1: {ID: 1},
	}
	c := NewCorpus(tweets, func(id socialnet.AccountID) *socialnet.Account {
		return known[id]
	})
	if len(c.Users) != 1 {
		t.Fatalf("corpus users = %d, want 1 (unknown author skipped)", len(c.Users))
	}
	if len(c.Tweets) != 2 {
		t.Fatal("tweets dropped")
	}
}

func TestClassCount(t *testing.T) {
	tests := []struct {
		seq  string
		want int
	}{
		{seq: "l3", want: 1},
		{seq: "l3N2", want: 2},
		{seq: "U1l2P1l3N2", want: 4},
		{seq: "", want: 0},
	}
	for _, tt := range tests {
		if got := classCount(tt.seq); got != tt.want {
			t.Errorf("classCount(%q) = %d, want %d", tt.seq, got, tt.want)
		}
	}
}

func TestPipelineDeterministicAcrossRuns(t *testing.T) {
	corpus, w := collectCorpus(t, 6)
	run := func() (int, int) {
		p := newPipeline(DefaultConfig())
		r := p.Run(corpus, NewNoisyOracle(w, 0.02, 7))
		return r.TotalSpams(), r.TotalSpammers()
	}
	s1, u1 := run()
	s2, u2 := run()
	if s1 != s2 || u1 != u2 {
		t.Fatalf("pipeline nondeterministic: (%d,%d) vs (%d,%d)", s1, u1, s2, u2)
	}
}

func TestClusterTextsEmpty(t *testing.T) {
	if got := clusterTexts(nil, 0.8, 1, 0); got != nil {
		t.Fatalf("clusterTexts(nil) = %v", got)
	}
}

func TestPerfectOracle(t *testing.T) {
	cfg := socialnet.DefaultConfig()
	cfg.NumAccounts = 300
	w, err := socialnet.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := NewPerfectOracle(w)
	if !o.TweetIsSpam(&socialnet.Tweet{Spam: true}) {
		t.Fatal("perfect oracle wrong on spam tweet")
	}
	if o.TweetIsSpam(&socialnet.Tweet{}) {
		t.Fatal("perfect oracle wrong on ham tweet")
	}
	var spammer, normal socialnet.AccountID
	for _, a := range w.Accounts() {
		if a.Kind == socialnet.KindSpammer && spammer == 0 {
			spammer = a.ID
		}
		if a.Kind == socialnet.KindNormal && normal == 0 {
			normal = a.ID
		}
	}
	if !o.UserIsSpammer(spammer) || o.UserIsSpammer(normal) {
		t.Fatal("perfect oracle wrong on users")
	}
	if o.UserIsSpammer(999999) {
		t.Fatal("perfect oracle flagged unknown user")
	}
}
