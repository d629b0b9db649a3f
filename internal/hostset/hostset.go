// Package hostset provides a fixed-capacity set of host identifiers for
// protocol copysets. A plain uint64 bitmask caps the cluster at 64
// hosts and — worse — overflows silently above that: 1<<h is 0 for
// h >= 64, so a big cluster loses copyset members without any error
// until a directory operation trips over an impossibly empty set. Set
// keeps the bitmask idiom but spans CapHosts hosts: it is a comparable
// value type (== compares membership), its zero value is the empty set,
// and no operation allocates.
package hostset

import "math/bits"

// CapHosts is the largest host id + 1 a Set can hold. It matches the
// cluster's host-count cap (millipage.Config.Hosts).
const CapHosts = 1024

const words = CapHosts / 64

// Set is a bit set of host ids in [0, CapHosts). Out-of-range ids panic
// (index out of range), the same loud failure an oversized cluster
// config produces.
type Set [words]uint64

// One returns the singleton {h}.
func One(h int) Set {
	var s Set
	s[h>>6] = 1 << uint(h&63)
	return s
}

// Of returns the set of the given hosts.
func Of(hs ...int) Set {
	var s Set
	for _, h := range hs {
		s[h>>6] |= 1 << uint(h&63)
	}
	return s
}

// Has reports whether h is a member.
func (s Set) Has(h int) bool { return s[h>>6]&(1<<uint(h&63)) != 0 }

// With returns s ∪ {h}.
func (s Set) With(h int) Set {
	s[h>>6] |= 1 << uint(h&63)
	return s
}

// Without returns s \ {h}.
func (s Set) Without(h int) Set {
	s[h>>6] &^= 1 << uint(h&63)
	return s
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool { return s == Set{} }

// Count returns the number of members.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// First returns the lowest member, or -1 when the set is empty.
func (s Set) First() int {
	for i, w := range s {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Last returns the highest member, or -1 when the set is empty.
func (s Set) Last() int {
	for i := len(s) - 1; i >= 0; i-- {
		if w := s[i]; w != 0 {
			return i<<6 + 63 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// Intersects reports whether s and o share a member.
func (s Set) Intersects(o Set) bool {
	for i := range s {
		if s[i]&o[i] != 0 {
			return true
		}
	}
	return false
}
