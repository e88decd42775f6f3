package label

import (
	"github.com/pseudo-honeypot/pseudohoneypot/internal/minhash"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/parallel"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/textutil"
)

// This file exports the pure, per-item half of the label store's ingest —
// normalization, shingling, MinHash signing, Σ-Seq computation — so shard
// workers (in-process goroutines or separate worker processes on the NDJSON
// wire) can precompute it concurrently; the store's own AddBatch runs the
// same Prepper over the worker pool. AddBatchPrepared then applies the
// stateful index joins sequentially.

// TweetPrep is the precomputed pure portion of one tweet add. Fields are
// exported (and JSON-shaped) so proc-mode shard workers can ship preps over
// the wire; uint64 signature words survive the JSON round-trip exactly.
type TweetPrep struct {
	Norm string            `json:"norm"`
	Sig  minhash.Signature `json:"sig,omitempty"` // nil below MinTweetLen
}

// UserPrep is the precomputed pure portion of one first-appearance user
// add, derived from the capture-time profile snapshot.
type UserPrep struct {
	NameSeq  string            `json:"name_seq"`
	DescNorm string            `json:"desc_norm"`
	DescSig  minhash.Signature `json:"desc_sig,omitempty"` // nil when DescNorm == ""
}

// Prepper computes label preps. It derives its MinHash schemes from the
// Config (Seed for descriptions, Seed+1 for tweets), so two Preppers of one
// Config — a shard worker's and the store's own — sign identically. A
// Prepper is immutable after construction and safe for concurrent use
// (minhash.Scheme.SignText only reads its coefficient tables).
type Prepper struct {
	cfg        Config
	descScheme *minhash.Scheme
	twScheme   *minhash.Scheme
}

// NewPrepper creates a Prepper matching NewStore(cfg).
func NewPrepper(cfg Config) *Prepper {
	cfg = cfg.withDefaults()
	return &Prepper{
		cfg:        cfg,
		descScheme: newLSHScheme(cfg.Seed),
		twScheme:   newLSHScheme(cfg.Seed + 1),
	}
}

// sigShapeOK reports whether a prep's signature is absent (the text was too
// short to sign) or has the length the banding indices are built for.
func sigShapeOK(sig minhash.Signature) bool {
	return sig == nil || len(sig) == lshBands*lshRows
}

// PrepTweet precomputes the normalization + near-duplicate signature of one
// tweet.
func (p *Prepper) PrepTweet(t *socialnet.Tweet) TweetPrep {
	tp := TweetPrep{Norm: normalizedKey(t)}
	if len(tp.Norm) >= p.cfg.MinTweetLen {
		tp.Sig = p.twScheme.SignText(tp.Norm, shingleWidth)
	}
	return tp
}

// PrepUser precomputes the Σ-Seq and description signature of one profile.
func (p *Prepper) PrepUser(profile *socialnet.Account) UserPrep {
	up := UserPrep{
		NameSeq:  textutil.ClassSeqWithRunLengths(profile.ScreenName),
		DescNorm: textutil.NormalizeDescription(profile.Description),
	}
	if up.DescNorm != "" {
		up.DescSig = p.descScheme.SignText(up.DescNorm, shingleWidth)
	}
	return up
}

// AddBatchPrepared ingests one micro-batch whose pure precompute already
// happened elsewhere, applying the stateful index joins in stream order —
// the one ingest path; AddBatch is a prep in front of it.
// tweetPreps[i] must be PrepTweet(tweets[i]); userPreps[i], when non-nil,
// must be PrepUser of authors[i]'s capture-time profile. A nil userPrep for
// a first-appearance author is recomputed inline (shard workers dedupe
// preps per shard, and the globally-first capture of an author is always
// the shard-locally-first too, so inline recompute only covers callers that
// skipped prep entirely: WAL replay, a respawned proc worker's successor).
// So is any prep whose signature is not lshBands×lshRows words long: preps
// cross a process boundary in proc mode, and a signature of another shape
// would never match in the index and would make the next checkpoint one
// that ReadSnapshot refuses.
func (s *Store) AddBatchPrepared(tweets []*socialnet.Tweet, authors, profiles []*socialnet.Account,
	tweetPreps []TweetPrep, userPreps []*UserPrep) []bool {
	s.mu.Lock()
	defer s.mu.Unlock()

	// User joins and tweet joins touch disjoint state (the profile indices;
	// the stream mirror, near-duplicate index and rule state), so the two
	// halves run concurrently, each in stream order — the users half keeps
	// the global author-first-appearance sequence.
	first := s.firstAppearancesLocked(authors)
	spam := make([]bool, len(tweets))
	parallel.ForEach(2, s.cfg.Workers, func(half int) {
		if half == 0 {
			for _, i := range first {
				up := userPreps[i]
				if up == nil || !sigShapeOK(up.DescSig) {
					p := s.prep.PrepUser(profileOr(profiles[i], authors[i]))
					up = &p
				}
				s.addUserLocked(authors[i], *up)
			}
			return
		}
		for i, t := range tweets {
			tp := tweetPreps[i]
			if !sigShapeOK(tp.Sig) {
				tp = s.prep.PrepTweet(t)
			}
			spam[i] = s.addTweetLocked(t, profileOr(profiles[i], authors[i]), tp)
		}
	})
	return spam
}
