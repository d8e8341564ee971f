package cim

import (
	"sort"

	"tpq/internal/pattern"
)

// worklist maintains the candidate leaves of a minimization run so the
// next candidate is picked without re-walking the whole pattern (a walk is
// O(augmented size) per pick, dominated by temporary witness subtrees that
// can never contain a candidate). internal/oracle's NextCandidate is that
// walk, kept as the reference for this order.
//
// A node is a candidate when it is an effective leaf (no permanent
// children), permanent, not an output node, and not yet proven
// non-redundant. Candidates leave the list when popped or dropped; a node
// enters after construction only when the removal of its last permanent
// child turns it into an effective leaf — which the caller reports via
// noteRemoved.
//
// The rank is the node's preorder position, or its entry in the
// Options.Order map with unmapped nodes ranked after every mapped one
// (assuming, as every caller does, order values below 1<<20). Preorder
// positions are assigned once at construction; deletions keep the
// relative order of survivors, which is all min-rank selection needs.
type worklist struct {
	order map[*pattern.Node]int
	pos   map[*pattern.Node]int // 1-based preorder position at construction
	items []*pattern.Node       // current candidates, unordered
}

func newWorklist(p *pattern.Pattern, order map[*pattern.Node]int) *worklist {
	w := &worklist{order: order, pos: make(map[*pattern.Node]int)}
	i := 0
	p.Walk(func(n *pattern.Node) {
		i++
		w.pos[n] = i
		if candidateLeaf(n) {
			w.items = append(w.items, n)
		}
	})
	return w
}

// candidateLeaf reports whether n may be tested for redundancy: a
// permanent, non-output effective leaf.
func candidateLeaf(n *pattern.Node) bool {
	return !n.Star && !n.Temp && effectiveLeaf(n)
}

func (w *worklist) rank(n *pattern.Node) int {
	if w.order != nil {
		if r, ok := w.order[n]; ok {
			return r
		}
		return w.pos[n] + 1<<20
	}
	return w.pos[n]
}

// pop removes and returns the best-ranked candidate, or nil when none is
// left. Ties break toward the earlier preorder position.
func (w *worklist) pop() *pattern.Node {
	if len(w.items) == 0 {
		return nil
	}
	best := 0
	for i := 1; i < len(w.items); i++ {
		ri, rb := w.rank(w.items[i]), w.rank(w.items[best])
		if ri < rb || (ri == rb && w.pos[w.items[i]] < w.pos[w.items[best]]) {
			best = i
		}
	}
	n := w.items[best]
	w.items[best] = w.items[len(w.items)-1]
	w.items = w.items[:len(w.items)-1]
	return n
}

// snapshot returns the current candidates in rank order without removing
// them; the parallel screening round tests a whole snapshot concurrently.
func (w *worklist) snapshot() []*pattern.Node {
	out := make([]*pattern.Node, len(w.items))
	copy(out, w.items)
	sort.Slice(out, func(i, j int) bool {
		ri, rj := w.rank(out[i]), w.rank(out[j])
		if ri != rj {
			return ri < rj
		}
		return w.pos[out[i]] < w.pos[out[j]]
	})
	return out
}

// drop removes n from the pending candidates if present (popped nodes are
// already gone; screening resolves candidates without popping).
func (w *worklist) drop(n *pattern.Node) {
	for i, m := range w.items {
		if m == n {
			w.items[i] = w.items[len(w.items)-1]
			w.items = w.items[:len(w.items)-1]
			return
		}
	}
}

// noteRemoved reports that a candidate was removed; parent is the removed
// node's former parent. If the removal turned the parent into an
// effective leaf it becomes a candidate now (it cannot have been tested
// before: it had a permanent child until this very removal).
func (w *worklist) noteRemoved(parent *pattern.Node) {
	if parent != nil && candidateLeaf(parent) {
		w.items = append(w.items, parent)
	}
}
