package cim

import (
	"slices"
	"sort"

	"tpq/internal/pattern"
)

// worklist maintains the candidate leaves of a minimization run, as
// ordinals, so the next candidate is picked without re-walking the whole
// pattern (a walk is O(augmented size) per pick, dominated by witness
// subtrees that can never contain a candidate). internal/oracle's
// NextCandidate is that walk, kept as the reference for this order.
//
// A node is a candidate when Engine.candidate holds — permanent, not an
// output node, no live permanent child — and it is not yet proven
// non-redundant. Candidates leave the list when popped or dropped; a node
// enters after construction only when the removal of its last permanent
// child makes it a candidate (add).
//
// The rank of an ordinal is its 1-based preorder position at
// construction, or its entry in the Options.Order map with unmapped nodes
// ranked after every mapped one (assuming, as every caller does, order
// values below 1<<20); the map is read once, at construction. Ties break
// toward the smaller ordinal, which is the earlier preorder position:
// compaction renumbers ordinals but keeps their relative order.
type worklist struct {
	rank  []int32 // by ordinal
	items []int32 // current candidates, unordered
}

func (w *worklist) init(nodes []*pattern.Node, order map[*pattern.Node]int, rank, items []int32, candidate func(int) bool) {
	w.rank, w.items = rank, items
	for i, n := range nodes {
		r := int32(i + 1)
		if order != nil {
			if o, ok := order[n]; ok {
				r = int32(o)
			} else {
				r += 1 << 20
			}
		}
		w.rank[i] = r
		if candidate(i) {
			w.items = append(w.items, int32(i))
		}
	}
}

func (w *worklist) less(a, b int32) bool {
	return w.rank[a] < w.rank[b] || (w.rank[a] == w.rank[b] && a < b)
}

// pop removes and returns the best-ranked candidate, or -1 when none is
// left.
func (w *worklist) pop() int {
	if len(w.items) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(w.items); i++ {
		if w.less(w.items[i], w.items[best]) {
			best = i
		}
	}
	n := w.items[best]
	w.items[best] = w.items[len(w.items)-1]
	w.items = w.items[:len(w.items)-1]
	return int(n)
}

// snapshot returns the nodes of the current candidates in rank order
// without removing them (Engine.Candidates).
func (w *worklist) snapshot(nodes []*pattern.Node) []*pattern.Node {
	ids := slices.Clone(w.items)
	sort.Slice(ids, func(i, j int) bool { return w.less(ids[i], ids[j]) })
	out := make([]*pattern.Node, len(ids))
	for j, i := range ids {
		out[j] = nodes[i]
	}
	return out
}

// drop removes ordinal i from the pending candidates if present (popped
// nodes are already gone; Candidates callers resolve candidates without
// popping).
func (w *worklist) drop(i int) {
	for j, m := range w.items {
		if int(m) == i {
			w.items[j] = w.items[len(w.items)-1]
			w.items = w.items[:len(w.items)-1]
			return
		}
	}
}

func (w *worklist) add(i int) { w.items = append(w.items, int32(i)) }

// renumber moves the worklist onto compacted ordinals: remap[i] is the
// new ordinal of live ordinal i, never larger than i.
func (w *worklist) renumber(remap []int32) {
	for i, r := range remap {
		if r >= 0 {
			w.rank[r] = w.rank[i]
		}
	}
	for j, i := range w.items {
		w.items[j] = remap[i]
	}
}
