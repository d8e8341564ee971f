// Package match holds what evaluation shares: the inverted type index
// over a data forest (ForestIndex) with its per-type bitset rows, their
// cached lifts and the forest's preorder arrays. Evaluation itself — the
// answer set, the embeddings and their count — runs on the twig engine in
// match/stream. Evaluation cost is what motivates minimization (Section 1
// of the paper): it grows with pattern size, so a minimized pattern
// matches faster.
//
// Embeddings are non-anchored: the pattern root may bind to any data node.
// An embedding e maps pattern nodes to data nodes such that every type
// required by a pattern node is carried by its data image, every value
// condition holds there, a c-child maps to a child, and a d-child maps to
// a proper descendant. The reference implementations of this definition
// live in internal/oracle.
package match

import (
	"math/bits"
	"sync"

	"tpq/internal/bitset"
	"tpq/internal/data"
	"tpq/internal/pattern"
)

// ForestIndex is an inverted index from type to the nodes carrying it, in
// document order, plus the forest's shape as flat preorder arrays. Build
// once per forest, reuse across queries: the twig engine in match/stream
// builds every pattern node's admission row from its type rows. It is
// safe for concurrent use.
type ForestIndex struct {
	forest *data.Forest
	byType map[pattern.Type][]*data.Node
	none   bitset.Set // the all-zero row of every type the forest lacks

	// The forest's shape over preorder IDs: parent[v] is v's parent (-1
	// at a root) and end[v] the last ID of v's subtree, so v's proper
	// descendants are (v, end[v]] and its children v+1, end[v+1]+1, …
	// up to end[v].
	parent, end []int32

	// mu guards rows, which caches per type the rows derived from
	// byType[t]: its bitset over node IDs and that row's lift along each
	// edge kind. Rows are filled lazily, on the first TypeBits or
	// LiftBits call for a type: an inline document may carry as many
	// distinct types as nodes, so eager rows per type would cost
	// types × nodes bits. Only types present in byType are cached, so
	// queries naming absent types cannot grow a shared index.
	mu   sync.Mutex
	rows map[pattern.Type]*typeRows
}

// typeRows are the cached rows of one type: bits, the set of its nodes,
// and its lifts, lift[0] along a c-edge and lift[1] along a d-edge (nil
// until first asked for).
type typeRows struct {
	bits bitset.Set
	lift [2]bitset.Set
}

// NewForestIndex builds the inverted index for f.
func NewForestIndex(f *data.Forest) *ForestIndex {
	idx := &ForestIndex{
		forest: f,
		byType: make(map[pattern.Type][]*data.Node),
		none:   bitset.New(f.Size()),
		rows:   make(map[pattern.Type]*typeRows),
		parent: make([]int32, f.Size()),
		end:    make([]int32, f.Size()),
	}
	for _, n := range f.Nodes() {
		for _, t := range n.Types {
			idx.byType[t] = append(idx.byType[t], n)
		}
		idx.parent[n.ID] = -1
		if n.Parent != nil {
			idx.parent[n.ID] = int32(n.Parent.ID)
		}
		idx.end[n.ID] = int32(n.SubtreeEnd())
	}
	return idx
}

// Forest returns the indexed forest.
func (idx *ForestIndex) Forest() *data.Forest { return idx.forest }

// Parents returns the parent ID of every node by preorder ID, -1 at a
// root. The slice is owned by the index and read-only.
func (idx *ForestIndex) Parents() []int32 { return idx.parent }

// Ends returns the last preorder ID of every node's subtree, by
// preorder ID. The slice is owned by the index and read-only.
func (idx *ForestIndex) Ends() []int32 { return idx.end }

// TypeBits returns the bitset over node IDs of the nodes carrying t,
// built on first use and cached; a type no node carries gets one shared
// all-zero row. The returned set is owned by the index: callers must
// treat it as read-only. The streaming engine builds every pattern node's
// admission set from these rows.
func (idx *ForestIndex) TypeBits(t pattern.Type) bitset.Set {
	if _, ok := idx.byType[t]; !ok {
		return idx.none
	}
	idx.mu.Lock()
	defer idx.mu.Unlock()
	return idx.typeRows(t).bits
}

// LiftBits returns the parents (c-edge) or proper ancestors (d-edge) of
// the nodes carrying t; any kind but Child lifts as a d-edge, as
// EdgeKind.String renders it. It follows TypeBits' policy: built on first
// use and cached, the shared all-zero row for a type no node carries,
// read-only. The streaming engine folds a plain pattern leaf into its
// parent's row with one AND against this row.
func (idx *ForestIndex) LiftBits(t pattern.Type, e pattern.EdgeKind) bitset.Set {
	if _, ok := idx.byType[t]; !ok {
		return idx.none
	}
	desc := e != pattern.Child
	i := 0
	if desc {
		i = 1
	}
	idx.mu.Lock()
	defer idx.mu.Unlock()
	tr := idx.typeRows(t)
	if tr.lift[i] == nil {
		tr.lift[i] = idx.lift(tr.bits, desc)
	}
	return tr.lift[i]
}

// typeRows returns t's cached rows, building its bitset on first use. The
// caller holds mu, and t is in byType.
func (idx *ForestIndex) typeRows(t pattern.Type) *typeRows {
	if tr, ok := idx.rows[t]; ok {
		return tr
	}
	s := bitset.New(idx.forest.Size())
	for _, v := range idx.byType[t] {
		s.Add(v.ID)
	}
	tr := &typeRows{bits: s}
	idx.rows[t] = tr
	return tr
}

// lift returns a new row: the proper ancestors of row's members when
// desc, their parents otherwise. The ancestor walk stops at a node
// already marked, whose own ancestors are then marked too, so each node
// is marked at most once: O(|row| + |lift(row)| + n/64), where a c-edge
// marks at most |row| nodes.
func (idx *ForestIndex) lift(row bitset.Set, desc bool) bitset.Set {
	out := make(bitset.Set, len(row))
	for wi, w := range row {
		for w != 0 {
			v := wi<<6 | bits.TrailingZeros64(w)
			w &= w - 1
			for p := idx.parent[v]; p >= 0 && !out.Has(int(p)); p = idx.parent[p] {
				out.Add(int(p))
				if !desc {
					break
				}
			}
		}
	}
	return out
}
