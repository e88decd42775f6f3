package label

import "github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"

// Add ingests one capture: AddBatch of a one-item batch.
func (s *Store) Add(t *socialnet.Tweet, author, profile *socialnet.Account) bool {
	return s.AddBatch([]*socialnet.Tweet{t},
		[]*socialnet.Account{author}, []*socialnet.Account{profile})[0]
}
