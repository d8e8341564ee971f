package match

import (
	"sync"

	"tpq/internal/bitset"
	"tpq/internal/data"
	"tpq/internal/pattern"
)

// ForestIndex is an inverted index from type to the nodes carrying it, in
// document order, plus the forest's shape as flat preorder arrays. Build
// once per forest, reuse across queries: the twig engine in match/stream
// and CountEmbeddings draw their candidates from it. It is safe for
// concurrent use.
type ForestIndex struct {
	forest *data.Forest
	byType map[pattern.Type][]*data.Node
	none   bitset.Set // the all-zero row of every type the forest lacks

	// The forest's shape over preorder IDs: parent[v] is v's parent (-1
	// at a root) and end[v] the last ID of v's subtree, so v's proper
	// descendants are (v, end[v]] and its children v+1, end[v+1]+1, …
	// up to end[v].
	parent, end []int32

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
