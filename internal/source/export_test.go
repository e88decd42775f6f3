package source

import "github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"

// World exposes the source's own social world.
func (r *RedditSource) World() *socialnet.World { return r.world }

// World exposes the wrapped world.
func (s *TwitterSource) World() *socialnet.World { return s.world }

// Hours reports how many recorded hours the log holds.
func (r *ReplaySource) Hours() int { return len(r.rotations) }
