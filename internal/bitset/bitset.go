// Package bitset provides the dense set substrate of the integer-indexed
// execution layer: fixed-capacity sets of small integers packed into
// uint64 words, and flat matrices of such rows.
//
// The minimization and matching kernels keep their rows as Sets over
// preorder ordinals, and package semijoin builds the one tree step on
// them, so a Set is deliberately minimal: word-parallel And and Or, range
// operations over a preorder interval (a node's proper descendants) that
// read only the words it spans, and NextSet iteration.
//
// Sets are plain slices, not structs: the capacity is fixed at creation
// and callers index only within it. All binary operations require equal
// lengths, which the execution layer guarantees by carving every row of
// one DP table from the same slab.
package bitset

import "math/bits"

// Word is the machine word a Set is packed into.
type Word = uint64

const wordBits = 64

// WordsFor returns the number of words needed for n bits.
func WordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// Set is a fixed-capacity set of integers in [0, 64*len(s)).
type Set []Word

// New returns a zeroed set with capacity for n bits.
func New(n int) Set { return make(Set, WordsFor(n)) }

// Has reports whether i is in the set.
func (s Set) Has(i int) bool { return s[i/wordBits]&(1<<(uint(i)%wordBits)) != 0 }

// Add inserts i.
func (s Set) Add(i int) { s[i/wordBits] |= 1 << (uint(i) % wordBits) }

// Remove deletes i.
func (s Set) Remove(i int) { s[i/wordBits] &^= 1 << (uint(i) % wordBits) }

// And intersects s with t in place. The sets must have equal length.
func (s Set) And(t Set) {
	for i := range s {
		s[i] &= t[i]
	}
}

// Or unites t into s in place. The sets must have equal length.
func (s Set) Or(t Set) {
	for i := range s {
		s[i] |= t[i]
	}
}

// Intersects reports whether s and t share a member. Equal lengths
// required.
func (s Set) Intersects(t Set) bool {
	for i := range s {
		if s[i]&t[i] != 0 {
			return true
		}
	}
	return false
}

// CopyFrom overwrites s with t. Equal lengths required.
func (s Set) CopyFrom(t Set) { copy(s, t) }

// Any reports whether the set is non-empty.
func (s Set) Any() bool {
	for _, w := range s {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of members.
func (s Set) Count() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

// NextSet returns the smallest member >= i, or -1 if there is none.
func (s Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	w := i / wordBits
	if w >= len(s) {
		return -1
	}
	cur := s[w] >> (uint(i) % wordBits)
	if cur != 0 {
		return i + bits.TrailingZeros64(cur)
	}
	for w++; w < len(s); w++ {
		if s[w] != 0 {
			return w*wordBits + bits.TrailingZeros64(s[w])
		}
	}
	return -1
}

// IntersectsRange reports whether the set contains any member in the
// inclusive range [lo, hi]: whether a node has a member of the set among
// its proper descendants, which occupy a preorder interval.
func (s Set) IntersectsRange(lo, hi int) bool { return s.NextInRange(lo, hi) >= 0 }

// RemoveRange deletes every integer in the inclusive range [lo, hi],
// word-parallel. The incremental images-table engine uses it to mask a
// tested leaf's excluded subtree interval and to clear the columns of a
// removed subtree from every surviving row.
func (s Set) RemoveRange(lo, hi int) {
	lo, hi = max(lo, 0), min(hi, len(s)*wordBits-1)
	if lo > hi {
		return
	}
	loW, hiW := lo/wordBits, hi/wordBits
	loMask := ^Word(0) << (uint(lo) % wordBits)
	hiMask := ^Word(0) >> (wordBits - 1 - uint(hi)%wordBits)
	if loW == hiW {
		s[loW] &^= loMask & hiMask
		return
	}
	s[loW] &^= loMask
	clear(s[loW+1 : hiW])
	s[hiW] &^= hiMask
}

// CopyRange overwrites the inclusive range [lo, hi] of s with t's bits
// there, word-parallel, leaving s outside the range untouched. Equal
// lengths required. The streaming matcher uses it to keep a candidate
// row inside the subtree intervals of a descendant step.
func (s Set) CopyRange(t Set, lo, hi int) {
	lo, hi = max(lo, 0), min(hi, len(s)*wordBits-1)
	if lo > hi {
		return
	}
	loW, hiW := lo/wordBits, hi/wordBits
	loMask := ^Word(0) << (uint(lo) % wordBits)
	hiMask := ^Word(0) >> (wordBits - 1 - uint(hi)%wordBits)
	if loW == hiW {
		m := loMask & hiMask
		s[loW] = s[loW]&^m | t[loW]&m
		return
	}
	s[loW] = s[loW]&^loMask | t[loW]&loMask
	copy(s[loW+1:hiW], t[loW+1:hiW])
	s[hiW] = s[hiW]&^hiMask | t[hiW]&hiMask
}

// Equal reports whether s and t contain exactly the same members. Equal
// lengths required.
func (s Set) Equal(t Set) bool {
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// NextInRange returns the smallest member in [lo, hi], or -1. It reads
// only the words the range spans.
func (s Set) NextInRange(lo, hi int) int {
	lo, hi = max(lo, 0), min(hi, len(s)*wordBits-1)
	if lo > hi {
		return -1
	}
	w := lo / wordBits
	for cur := s[w] & (^Word(0) << (uint(lo) % wordBits)); ; cur = s[w] {
		if cur != 0 {
			if i := w*wordBits + bits.TrailingZeros64(cur); i <= hi {
				return i
			}
			return -1
		}
		if w++; w > hi/wordBits {
			return -1
		}
	}
}

// Matrix is a dense table of equal-length rows allocated in one slab —
// the feasibility table of a containment-mapping search. Row i is the
// bit-set over columns for node ID i.
type Matrix struct {
	words int
	bits  Set // rows * words
}

// NewMatrix allocates a zeroed rows x cols bit matrix.
func NewMatrix(rows, cols int) *Matrix {
	words := WordsFor(cols)
	return &Matrix{words: words, bits: make(Set, rows*words)}
}

// Row returns row i as a Set sharing the matrix's storage.
func (m *Matrix) Row(i int) Set { return m.bits[i*m.words : (i+1)*m.words] }
