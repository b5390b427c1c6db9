// Package bitset provides compact, fixed-capacity bit vectors used to
// represent task and worker keyword sets.
//
// The paper models a task t as a Boolean vector ⟨t(s1),…,t(sR)⟩ over a
// keyword universe S and a worker the same way (Section II). All distance
// computations in the system reduce to set operations over these vectors
// (intersection and union cardinalities for Jaccard, symmetric difference
// for Hamming), so Set is optimized for cheap popcount-based aggregates.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a bit vector over the universe {0, …, n-1} where n was the capacity
// it was created with. The zero value is an empty set of capacity 0; use New
// to create a set with room for keywords.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty Set with capacity for n bits. n must be >= 0.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices returns a Set of capacity n with the given bits set.
// Indices outside [0, n) panic.
func FromIndices(n int, indices ...int) *Set {
	s := New(n)
	for _, i := range indices {
		s.Add(i)
	}
	return s
}

// Len returns the capacity (universe size) of the set.
func (s *Set) Len() int { return s.n }

// Add sets bit i.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove clears bit i.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether bit i is set.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Count returns the number of set bits (|s|).
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IntersectionCount returns |s ∩ t|. Sets of different capacities are
// compared over the shorter word prefix; bits beyond either capacity are
// zero by construction.
func (s *Set) IntersectionCount(t *Set) int {
	a, b := s.words, t.words
	if len(b) < len(a) {
		a, b = b, a
	}
	c := 0
	for i, w := range a {
		c += bits.OnesCount64(w & b[i])
	}
	return c
}

// IntersectionUnionCount returns |s ∩ t| and |s ∪ t| in a single pass over
// the words — the two aggregates Jaccard needs, at half the memory traffic
// of calling IntersectionCount and UnionCount separately.
// Pack.IntersectionUnionCountAt is its packed counterpart.
func (s *Set) IntersectionUnionCount(t *Set) (inter, union int) {
	a, b := s.words, t.words
	if len(b) < len(a) {
		a, b = b, a
	}
	for i, w := range a {
		inter += bits.OnesCount64(w & b[i])
		union += bits.OnesCount64(w | b[i])
	}
	for _, w := range b[len(a):] {
		union += bits.OnesCount64(w)
	}
	return inter, union
}

// UnionCount returns |s ∪ t|.
func (s *Set) UnionCount(t *Set) int {
	a, b := s.words, t.words
	if len(b) < len(a) {
		a, b = b, a
	}
	c := 0
	for i, w := range a {
		c += bits.OnesCount64(w | b[i])
	}
	for _, w := range b[len(a):] {
		c += bits.OnesCount64(w)
	}
	return c
}

// SymmetricDifferenceCount returns |s △ t|, the Hamming distance between the
// two indicator vectors.
func (s *Set) SymmetricDifferenceCount(t *Set) int {
	a, b := s.words, t.words
	if len(b) < len(a) {
		a, b = b, a
	}
	c := 0
	for i, w := range a {
		c += bits.OnesCount64(w ^ b[i])
	}
	for _, w := range b[len(a):] {
		c += bits.OnesCount64(w)
	}
	return c
}

// Equal reports whether the two sets contain exactly the same elements.
// Capacity is not part of equality.
func (s *Set) Equal(t *Set) bool {
	return s.SymmetricDifferenceCount(t) == 0
}

// Hash returns a 64-bit hash of the set's bits and capacity. Sets that are
// Equal and have the same Len hash alike; sets that differ may collide, so
// a caller grouping sets by hash confirms a match with Equal and Len.
func (s *Set) Hash() uint64 {
	h := uint64(s.n) * 0x9e3779b97f4a7c15
	for _, w := range s.words {
		h = (h ^ w) * 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	return h
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// UnionWith sets s to s ∪ t in place. t's capacity must not exceed s's.
func (s *Set) UnionWith(t *Set) {
	if t.n > s.n {
		panic(fmt.Sprintf("bitset: UnionWith capacity %d exceeds receiver capacity %d", t.n, s.n))
	}
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// Clear removes all elements.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Indices returns the sorted list of set bit positions.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// String renders the set as a compact index list, e.g. "{1,5,9}".
func (s *Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, idx := range s.Indices() {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", idx)
	}
	sb.WriteByte('}')
	return sb.String()
}
