package honeypot

import "github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"

// NodeIDs returns the honeypot account ids.
func (d *Deployment) NodeIDs() []socialnet.AccountID {
	ids := make([]socialnet.AccountID, 0, len(d.nodes))
	for id := range d.nodes {
		ids = append(ids, id)
	}
	return ids
}
