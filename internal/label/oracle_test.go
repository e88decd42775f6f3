package label

import "github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"

// PerfectOracle reveals ground truth without noise, so a test can score
// the pipeline without annotator error.
type PerfectOracle struct {
	world *socialnet.World
}

var _ Oracle = (*PerfectOracle)(nil)

// NewPerfectOracle creates a noise-free oracle over the world.
func NewPerfectOracle(world *socialnet.World) *PerfectOracle {
	return &PerfectOracle{world: world}
}

// TweetIsSpam reveals a tweet's true label.
func (o *PerfectOracle) TweetIsSpam(t *socialnet.Tweet) bool { return t.Spam }

// UserIsSpammer reveals an account's true kind.
func (o *PerfectOracle) UserIsSpammer(id socialnet.AccountID) bool {
	a := o.world.Account(id)
	return a != nil && a.Kind == socialnet.KindSpammer
}
