package label

import (
	"hash/fnv"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// NoisyOracle reveals the world's generative ground truth with a fixed
// per-item error rate, modelling imperfect human annotators. Errors are
// deterministic per item (re-checking the same tweet gives the same wrong
// answer), as human labeling mistakes tend to be.
type NoisyOracle struct {
	lookup  func(socialnet.AccountID) *socialnet.Account
	errRate float64
	seed    int64
}

var _ Oracle = (*NoisyOracle)(nil)

// NewNoisyOracle creates an oracle over the world with the given error
// rate in [0, 1).
func NewNoisyOracle(world *socialnet.World, errRate float64, seed int64) *NoisyOracle {
	return NewNoisyLookupOracle(world.Account, errRate, seed)
}

// NewNoisyLookupOracle creates an oracle over an arbitrary account
// resolver — the ingest-source Lookup for multi-source and replayed runs,
// where there is no single live world. The flip hash depends only on item
// ids and the seed, so a replayed run's manual checks reproduce the
// recording's answers bit for bit.
func NewNoisyLookupOracle(lookup func(socialnet.AccountID) *socialnet.Account, errRate float64, seed int64) *NoisyOracle {
	if errRate < 0 {
		errRate = 0
	}
	if errRate >= 1 {
		errRate = 0.99
	}
	return &NoisyOracle{lookup: lookup, errRate: errRate, seed: seed}
}

// TweetIsSpam reveals a tweet's ground truth, possibly flipped.
func (o *NoisyOracle) TweetIsSpam(t *socialnet.Tweet) bool {
	truth := t.Spam
	if o.flip(uint64(t.ID) * 2654435761) {
		return !truth
	}
	return truth
}

// UserIsSpammer reveals an account's ground truth, possibly flipped.
func (o *NoisyOracle) UserIsSpammer(id socialnet.AccountID) bool {
	truth := false
	if a := o.lookup(id); a != nil {
		truth = a.Kind == socialnet.KindSpammer
	}
	if o.flip(uint64(id)*11400714819323198485 + 7) {
		return !truth
	}
	return truth
}

// flip deterministically decides whether the answer for an item is wrong.
func (o *NoisyOracle) flip(itemKey uint64) bool {
	if o.errRate == 0 {
		return false
	}
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(itemKey >> uint(8*i))
		buf[8+i] = byte(uint64(o.seed) >> uint(8*i))
	}
	_, _ = h.Write(buf[:])
	// Map the hash to [0, 1).
	u := float64(h.Sum64()>>11) / float64(1<<53)
	return u < o.errRate
}
