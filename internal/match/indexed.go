package match

import (
	"sync"

	"tpq/internal/bitset"
	"tpq/internal/data"
	"tpq/internal/pattern"
)

// This file implements the structural-join kernel over a per-type
// inverted index — the approach XML query processors take when the
// database is large and the pattern selective. Candidate lists (sorted by
// document position) are computed bottom-up over the pattern and pruned
// top-down; ancestor/descendant checks are merges over preorder intervals
// rather than scans of the whole forest.
//
// For a pattern of size k over a forest of size n with candidate lists of
// total length m, evaluation costs O(k·m·log n) rather than a full scan's
// O(k·n) — a win whenever the pattern's types are selective (m ≪ n).

// ForestIndex is an inverted index from type to the nodes carrying it, in
// document order. Build once per forest, reuse across queries: the
// streaming engine, the structural-join kernel and CountEmbeddings all
// draw their candidates from it. It is safe for concurrent use.
type ForestIndex struct {
	forest *data.Forest
	byType map[pattern.Type][]*data.Node
	none   bitset.Set // the all-zero row of every type the forest lacks

	// mu guards bits, which caches per type the bitset over node IDs of
	// byType[t]. Rows are filled lazily, on the first TypeBits call for a
	// type: an inline document may carry as many distinct types as nodes,
	// so one eager row per type would cost types × nodes bits. Only types
	// present in byType are cached, so queries naming absent types cannot
	// grow a shared index.
	mu   sync.Mutex
	bits map[pattern.Type]bitset.Set
}

// NewForestIndex builds the inverted index for f.
func NewForestIndex(f *data.Forest) *ForestIndex {
	idx := &ForestIndex{
		forest: f,
		byType: make(map[pattern.Type][]*data.Node),
		none:   bitset.New(f.Size()),
		bits:   make(map[pattern.Type]bitset.Set),
	}
	for _, n := range f.Nodes() {
		for _, t := range n.Types {
			idx.byType[t] = append(idx.byType[t], n)
		}
	}
	return idx
}

// Forest returns the indexed forest.
func (idx *ForestIndex) Forest() *data.Forest { return idx.forest }

// TypeBits returns the bitset over node IDs of the nodes carrying t,
// built on first use and cached; a type no node carries gets one shared
// all-zero row. The returned set is owned by the index: callers must
// treat it as read-only. The streaming engine builds every pattern node's
// admission set from these rows.
func (idx *ForestIndex) TypeBits(t pattern.Type) bitset.Set {
	nodes, ok := idx.byType[t]
	if !ok {
		return idx.none
	}
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if s, ok := idx.bits[t]; ok {
		return s
	}
	s := bitset.New(idx.forest.Size())
	for _, v := range nodes {
		s.Add(v.ID)
	}
	idx.bits[t] = s
	return s
}

// Candidates returns the nodes satisfying the pattern node's local
// requirements (all types, all conditions), in document order.
func (idx *ForestIndex) Candidates(u *pattern.Node) []*data.Node {
	base := idx.byType[u.Type]
	if len(u.Extra) == 0 && len(u.Conds) == 0 {
		return base
	}
	out := make([]*data.Node, 0, len(base))
	for _, v := range base {
		if TypesOK(u, v) {
			out = append(out, v)
		}
	}
	return out
}

// AnswersIndexed evaluates p over the indexed forest and returns the
// answer set in document order.
//
// Deprecated: new code should stream answers through match/stream (the
// tpq.Matcher engine) instead of materializing the structural-join
// candidate lists. This kernel stays as the fig-match figure's
// comparison baseline until the streaming engine is faster at every
// size.
func AnswersIndexed(p *pattern.Pattern, idx *ForestIndex) []*data.Node {
	star := p.OutputNode()
	if star == nil || idx == nil || idx.forest.Size() == 0 {
		return nil
	}

	// Bottom-up: cand(u) = document-ordered nodes where subtree(u) embeds.
	cand := make(map[*pattern.Node][]*data.Node)
	var up func(u *pattern.Node)
	up = func(u *pattern.Node) {
		for _, c := range u.Children {
			up(c)
		}
		list := idx.Candidates(u)
		for _, c := range u.Children {
			if len(list) == 0 {
				break
			}
			if c.Edge == pattern.Child {
				list = filterHasChildIn(list, cand[c])
			} else {
				list = filterHasDescendantIn(list, cand[c])
			}
		}
		cand[u] = list
	}
	up(p.Root)

	// Top-down: keep only candidates lying under a surviving parent image.
	bound := map[*pattern.Node][]*data.Node{p.Root: cand[p.Root]}
	var down func(u *pattern.Node)
	down = func(u *pattern.Node) {
		for _, c := range u.Children {
			if c.Edge == pattern.Child {
				bound[c] = filterIsChildOf(cand[c], bound[u])
			} else {
				bound[c] = filterIsDescendantOf(cand[c], bound[u])
			}
			down(c)
		}
	}
	down(p.Root)
	return bound[star]
}

// CountIndexed returns the number of answers of p over the indexed forest.
//
// Deprecated: see AnswersIndexed; stream.Query.Count visits the same
// answers without materializing them.
func CountIndexed(p *pattern.Pattern, idx *ForestIndex) int {
	return len(AnswersIndexed(p, idx))
}

// filterHasDescendantIn keeps the nodes of list with at least one proper
// descendant in others. Both lists are in document order, so one merge
// cursor finds, for each v, the first other positioned strictly after it;
// subtree members are contiguous in preorder, so that other is a
// descendant of v iff its ID is within v's interval (ID, SubtreeEnd].
// O(len(list) + len(others)), no pointer walks.
func filterHasDescendantIn(list, others []*data.Node) []*data.Node {
	if len(others) == 0 {
		return nil
	}
	out := list[:0:0]
	j := 0
	for _, v := range list {
		for j < len(others) && others[j].ID <= v.ID {
			j++
		}
		if j < len(others) && others[j].ID <= v.SubtreeEnd() {
			out = append(out, v)
		}
	}
	return out
}

// filterHasChildIn keeps the nodes of list with at least one direct child
// in others.
func filterHasChildIn(list, others []*data.Node) []*data.Node {
	set := make(map[*data.Node]bool, len(others))
	for _, w := range others {
		set[w] = true
	}
	out := list[:0:0]
	for _, v := range list {
		for _, ch := range v.Children {
			if set[ch] {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// filterIsChildOf keeps the nodes of list whose parent is in parents.
func filterIsChildOf(list, parents []*data.Node) []*data.Node {
	set := make(map[*data.Node]bool, len(parents))
	for _, w := range parents {
		set[w] = true
	}
	out := list[:0:0]
	for _, v := range list {
		if v.Parent != nil && set[v.Parent] {
			out = append(out, v)
		}
	}
	return out
}

// filterIsDescendantOf keeps the nodes of list lying strictly below some
// node of ancestors. v is a proper descendant of a iff a.ID < v.ID and
// v.ID <= a.SubtreeEnd() (subtree IDs are contiguous in preorder), so v
// qualifies iff the running maximum of SubtreeEnd over the ancestors
// positioned before it reaches v.ID. Both lists are in document order, so
// one merge cursor maintains that maximum in O(len(list) + len(ancestors))
// — replacing the earlier backward scan over nested candidates, which
// degenerated quadratically when ancestors stacked.
func filterIsDescendantOf(list, ancestors []*data.Node) []*data.Node {
	if len(ancestors) == 0 {
		return nil
	}
	out := list[:0:0]
	j, maxEnd := 0, -1
	for _, v := range list {
		for j < len(ancestors) && ancestors[j].ID < v.ID {
			if e := ancestors[j].SubtreeEnd(); e > maxEnd {
				maxEnd = e
			}
			j++
		}
		if v.ID <= maxEnd {
			out = append(out, v)
		}
	}
	return out
}
