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
	"sync"

	"tpq/internal/bitset"
	"tpq/internal/data"
	"tpq/internal/pattern"
	"tpq/internal/semijoin"
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

	shape semijoin.Target // every node's parent and subtree end, by preorder ID

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
		shape:  semijoin.Target{Up: make([]int32, f.Size()), End: make([]int32, f.Size())},
	}
	for _, n := range f.Nodes() {
		for _, t := range n.Types {
			idx.byType[t] = append(idx.byType[t], n)
		}
		idx.shape.Up[n.ID] = -1
		if n.Parent != nil {
			idx.shape.Up[n.ID] = int32(n.Parent.ID)
		}
		idx.shape.End[n.ID] = int32(n.SubtreeEnd())
	}
	return idx
}

// Forest returns the indexed forest.
func (idx *ForestIndex) Forest() *data.Forest { return idx.forest }

// Target returns the forest's shape as a semijoin target: every node's
// parent (-1 at a root) and the last preorder ID of its subtree, by
// preorder ID. Its slices are owned by the index and read-only.
func (idx *ForestIndex) Target() semijoin.Target { return idx.shape }

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
		row := make(bitset.Set, len(tr.bits))
		if desc { // every node may be an ancestor: the mask is the forest
			for w := range row {
				row[w] = ^bitset.Word(0)
			}
			row.RemoveRange(idx.forest.Size(), len(row)*64-1)
			idx.shape.LiftDesc(row, row, tr.bits, nil)
		} else {
			copy(row, tr.bits)
			idx.shape.LiftChild(row, nil)
		}
		tr.lift[i] = row
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
