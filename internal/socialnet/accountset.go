package socialnet

import (
	"math/bits"
	"slices"
)

// NamespaceShift is where an id's namespace starts: the bits of an
// AccountID from NamespaceShift up name the population the account belongs
// to (a multi-source mux puts its child index there), the bits below it the
// account within that population. A world's own ids are namespace 0.
const NamespaceShift = 40

// AccountSet is a set of positive account ids, one bit per id. The bits
// live in one page per namespace, each page as long as the largest id
// added to it, so a set of a world's ids — numbered densely from 1 —
// costs one bit per account however many it holds, and a membership test
// is a shift and a mask. Ids ≤ 0 name no account: Add ignores them and
// Has reports them absent.
//
// The zero value is an empty set, and a nil *AccountSet reads as empty.
type AccountSet struct {
	local []uint64 // namespace 0
	other []idPage // namespaces ≥ 1, ascending
}

type idPage struct {
	ns   uint64
	bits []uint64
}

// page returns a pointer to namespace ns's bits, adding the namespace
// when add is set, or nil.
func (s *AccountSet) page(ns uint64, add bool) *[]uint64 {
	if ns == 0 {
		return &s.local
	}
	k := 0
	for k < len(s.other) && s.other[k].ns < ns {
		k++
	}
	if k < len(s.other) && s.other[k].ns == ns {
		return &s.other[k].bits
	}
	if !add {
		return nil
	}
	s.other = slices.Insert(s.other, k, idPage{ns: ns})
	return &s.other[k].bits
}

// Add puts id in the set. A page grows to the word holding its largest
// id, so callers add only ids of a population they hold (the twitterapi
// server drops the ids outside its world before adding).
func (s *AccountSet) Add(id AccountID) {
	if id <= 0 {
		return
	}
	p := s.page(uint64(id)>>NamespaceShift, true)
	lo := uint64(id) & (1<<NamespaceShift - 1)
	if w := int(lo >> 6); w >= len(*p) {
		*p = slices.Grow(*p, w+1-len(*p))[:w+1]
	}
	(*p)[lo>>6] |= 1 << (lo & 63)
}

// Has reports whether id is in the set.
func (s *AccountSet) Has(id AccountID) bool {
	if s == nil || id <= 0 {
		return false
	}
	page := s.local
	if ns := uint64(id) >> NamespaceShift; ns != 0 {
		p := s.page(ns, false)
		if p == nil {
			return false
		}
		page = *p
	}
	lo := uint64(id) & (1<<NamespaceShift - 1)
	w := lo >> 6
	return w < uint64(len(page)) && page[w]&(1<<(lo&63)) != 0
}

// Namespace returns the ids of namespace ns moved to namespace 0: the
// exclusions a multi-source mux hands the child whose ids it namespaces by
// ns. The result shares s's storage, so it is read-only and valid until s
// next changes.
func (s *AccountSet) Namespace(ns int) AccountSet {
	if s == nil || ns < 0 {
		return AccountSet{}
	}
	p := s.page(uint64(ns), false)
	if p == nil {
		return AccountSet{}
	}
	return AccountSet{local: *p}
}

// AppendIDs appends the set's ids to dst in ascending order.
func (s *AccountSet) AppendIDs(dst []AccountID) []AccountID {
	if s == nil {
		return dst
	}
	dst = appendPage(dst, 0, s.local)
	for _, p := range s.other {
		dst = appendPage(dst, p.ns, p.bits)
	}
	return dst
}

func appendPage(dst []AccountID, ns uint64, page []uint64) []AccountID {
	base := ns << NamespaceShift
	for w, word := range page {
		for word != 0 {
			dst = append(dst, AccountID(base|uint64(w)<<6|uint64(bits.TrailingZeros64(word))))
			word &= word - 1
		}
	}
	return dst
}
