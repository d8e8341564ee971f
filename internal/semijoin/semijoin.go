// Package semijoin is the one semijoin step of every tree kernel: keep the
// members of a row that have a member of a child's row as a c-child or
// below them. A tree pattern is an acyclic conjunctive query, so this
// step evaluates it (Gottlob, Koch & Schulz, Conjunctive Queries over
// Trees): the twig engine of match/stream runs it over a data forest,
// containment mappings and CIM's images tables (Figure 3) over a pattern.
//
// Both are a Target of preorder ordinals; rows are bitsets over them. The
// package holds four word-parallel passes (LiftChild and LiftDesc lift a
// child's row, BelowChild and BelowDesc step a row down), the probe of
// one member (Image), and Filter, which picks per row between probing
// members and lifting whole rows. A pass calls the poll it is given once
// per 1,024 row words or intervals and stops when it reports true.
package semijoin

import (
	"math"
	"math/bits"

	"tpq/internal/bitset"
)

// pollMask spaces a pass's polls: one per 1,024 words or intervals.
const pollMask = 1024 - 1

// Target is the shape rows live in: the proper descendants of v are
// (v, End[v]] and its children v+1, End[v+1]+1, … up to End[v]. A forest
// is a target whose edges are all c-edges (match.ForestIndex.Target), a
// pattern one whose d-edges have no Up (pattern.Preorder). Only Filter
// reads Kids.
type Target struct {
	Up   []int32 // parent through a c-edge: -1 at a root and below a d-edge
	End  []int32 // last ordinal of the subtree
	Kids []int32 // number of children, of both edge kinds
}

// LiftChild rewrites s, in place, to the c-edge parents of its members. A
// parent precedes its children, so an ascending pass that reads and clears
// word wi before ORing parent bits into words at or before it reads every
// word before any parent bit lands in it: O(|s| + n/64).
func (t *Target) LiftChild(s bitset.Set, poll func() bool) {
	for wi := range s {
		if wi&pollMask == 0 && poll != nil && poll() {
			return
		}
		w := s[wi]
		s[wi] = 0
		for ; w != 0; w &= w - 1 {
			if p := t.Up[wi<<6|bits.TrailingZeros64(w)]; p >= 0 {
				s[p>>6] |= 1 << (uint(p) & 63)
			}
		}
	}
}

// LiftDesc sets dst to the members v of mask with a member of src in
// (v, End[v]]. A descending pass keeps next, the smallest member of src
// above the position, so each v is one comparison. It reads src's word
// before writing dst's: dst may alias mask or src.
func (t *Target) LiftDesc(dst, mask, src bitset.Set, poll func() bool) {
	next := math.MaxInt
	for wi := len(dst) - 1; wi >= 0; wi-- {
		if wi&pollMask == 0 && poll != nil && poll() {
			return
		}
		m, sw := mask[wi], src[wi]
		var out bitset.Word
		if m == 0 {
			if sw != 0 {
				next = wi<<6 | bits.TrailingZeros64(sw)
			}
			dst[wi] = 0
			continue
		}
		for all := m | sw; all != 0; {
			b := 63 - bits.LeadingZeros64(all)
			bit := bitset.Word(1) << uint(b)
			all &^= bit
			v := wi<<6 | b
			if m&bit != 0 && next <= int(t.End[v]) {
				out |= bit
			}
			if sw&bit != 0 {
				next = v
			}
		}
		dst[wi] = out
	}
}

// BelowChild rewrites row, in place, to the members of cand whose c-edge
// parent is in row. A descending pass writes row[wi] only after every
// member whose parent bit lies in word wi has been tested.
func (t *Target) BelowChild(row, cand bitset.Set, poll func() bool) {
	for wi := len(row) - 1; wi >= 0; wi-- {
		if wi&pollMask == 0 && poll != nil && poll() {
			return
		}
		var out bitset.Word
		for c := cand[wi]; c != 0; c &= c - 1 {
			b := bits.TrailingZeros64(c)
			if p := t.Up[wi<<6|b]; p >= 0 {
				out |= row[p>>6] >> (uint(p) & 63) & 1 << uint(b)
			}
		}
		row[wi] = out
	}
}

// BelowDesc rewrites row, in place, to the members of cand that are proper
// descendants of a member of row. Intervals nest, so one ascending merge
// suffices: jump to the next member a at or after pos, clear [pos, a],
// copy cand over (a, End[a]] and go on from End[a]+1.
func (t *Target) BelowDesc(row, cand bitset.Set, poll func() bool) {
	pos, tick := 0, 0
	for a := row.NextSet(0); a >= 0; a = row.NextSet(pos) {
		if tick++; tick&pollMask == 0 && poll != nil && poll() {
			return
		}
		e := int(t.End[a])
		row.RemoveRange(pos, a)
		row.CopyRange(cand, a+1, e)
		pos = e + 1
	}
	row.RemoveRange(pos, len(row)*64-1)
}

// Image returns the first member of row after prev that is an image under
// v along a c-edge (child) or a d-edge — a c-child of v, or a node of
// (v, End[v]] — or -1. prev is v for the first image and the last image
// found for the next. A c-edge probe walks v's Kids children; a d-edge
// probe scans the row's words over v's subtree.
func (t *Target) Image(row bitset.Set, v, prev int, child bool) int {
	end := int(t.End[v])
	if !child {
		return row.NextInRange(prev+1, end)
	}
	c := v + 1
	if prev != v {
		c = int(t.End[prev]) + 1
	}
	for ; c <= end; c = int(t.End[c]) + 1 {
		if t.Up[c] == int32(v) && row.Has(c) {
			return c
		}
	}
	return -1
}

// Req is a child a row is filtered against: its row and its edge kind.
type Req struct {
	Row   bitset.Set
	Child bool // a c-edge; a d-edge otherwise
}

// wordCost is the probe cost Filter allows per row word and per child
// before it lifts whole rows, a lift being a few passes over the words.
// Three alternating rounds of tpqbench -json -fig 7a, 7b and 9a on a
// 2-vCPU host, against probing every member: at 16 (or 4), 7(a) read
// 0.25–0.47x and 7(b) and 9(a) 0.83–1.20x; at 64, 7(a) read 0.96–1.10x.
const wordCost = 16

// Filter keeps the members s of row that have an image under s in every
// child's row, and reports whether it removed any. It probes the members
// in ascending order, charging before each what its probes may cost — per
// c-edge child 1 + Kids[s], per d-edge child 1 + (End[s]−s)/64 — and once
// the charge passes wordCost per row word and per child, it ANDs each
// child's lifted row into row instead, lifting c-edge rows in tmp, a
// row of row's length it may overwrite. Both sides compute the same set.
func (t *Target) Filter(row bitset.Set, reqs []Req, tmp bitset.Set) bool {
	return len(reqs) > 0 && t.filter(row, reqs, tmp, wordCost*len(row)*len(reqs))
}

// filter is Filter within budget: 0 lifts at once, math.MaxInt only probes.
func (t *Target) filter(row bitset.Set, reqs []Req, tmp bitset.Set, budget int) bool {
	nc, charge, removed := 0, 0, false
	for _, r := range reqs {
		if r.Child {
			nc++
		}
	}
	for s := row.NextSet(0); s >= 0; s = row.NextSet(s + 1) {
		if charge += nc*(1+int(t.Kids[s])) + (len(reqs)-nc)*(1+(int(t.End[s])-s)>>6); charge > budget {
			before := row.Count()
			for _, r := range reqs {
				if r.Child {
					tmp.CopyFrom(r.Row)
					t.LiftChild(tmp, nil)
					row.And(tmp)
				} else {
					t.LiftDesc(row, row, r.Row, nil)
				}
			}
			return removed || row.Count() != before
		}
		for _, r := range reqs {
			if t.Image(r.Row, s, s, r.Child) < 0 {
				row.Remove(s)
				removed = true
				break
			}
		}
	}
	return removed
}
