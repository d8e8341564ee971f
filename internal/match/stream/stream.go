// Package stream is the twig match engine: it evaluates a tree pattern
// query over an indexed forest and yields answers — and full embeddings —
// through iterators. It is the one evaluation engine behind tpq.Matcher,
// tpqd's /match and tpqmatch.
//
// A tree pattern is an acyclic conjunctive query, so semijoins evaluate
// it in time linear in data × query. The engine runs them set-at-a-time
// on rows, bitsets over the forest's preorder IDs, through the passes of
// package semijoin, over the index's preorder arrays
// (match.ForestIndex.Target) as their target.
//
// Compile reads the pattern through its preorder layout
// (pattern.Preorder), so pattern nodes are ordinals too, and gives every
// node an admission row: the data IDs passing its local test (all types,
// all conditions), built from the index's per-type rows, so no pass
// compares type names. A leaf's lift depends on the forest alone, so
// every plain leaf (one type, no conditions) off the root-to-output path
// also takes its lift row from the index's per-type cache
// (match.ForestIndex.LiftBits). A run then computes:
//
//   - bottom-up, for each pattern node u off the root-to-output path, the
//     row S(u) of data nodes where u's subtree embeds: u's admission row
//     intersected with the lift of every child's row — its members'
//     parents for a c-edge, their proper ancestors for a d-edge;
//   - top-down along the path p₀ … pₘ, the row C(pᵢ) of feasible images
//     of pᵢ: C(p₀) is S(p₀) without the on-path child, and C(pᵢ₊₁) is the
//     same for pᵢ₊₁ intersected with the children (c-edge) or the proper
//     descendants (d-edge) of C(pᵢ)'s members.
//
// C(pₘ) is the answer row; the iterators walk it in document order, and a
// count is its popcount (UnionCount, Query.Count), with no per-answer
// work. Each step costs what its rows hold: a plain leaf's lift is one AND
// with its precomputed row, O(n/64); any other lift or step is one
// semijoin pass, O(|S(c)| + n/64) for a c-edge lift, in place in a row the
// run owns or a scratch copy. So a run costs O(k·n) for a k-node pattern
// over an n-node forest whatever its answers.
//
// Rows come from a pooled per-run scratch and are rewritten in place
// wherever the pattern allows, so Answers and Count hold at most
// ⌊log₂ k⌋ + 2 rows and a union one more (see answerRow): memory is
// bounded by construction, not by a ceiling. Embeddings keeps one S row
// per pattern node as its admission filter, which makes its enumeration
// polynomial-delay; CountEmbeddings counts the same embeddings without
// enumerating them, by one product-of-sums pass over those rows.
package stream

import (
	"cmp"
	"errors"
	"slices"

	"tpq/internal/bitset"
	"tpq/internal/data"
	"tpq/internal/match"
	"tpq/internal/pattern"
	"tpq/internal/semijoin"
)

// Options configure a compiled Query. The engine has no settings; the
// type stays so callers' Compile calls keep their shape.
type Options struct{}

// Query is a pattern compiled for evaluation against one ForestIndex.
// Compile once, iterate many times; a Query is immutable after Compile
// and safe for concurrent use — every Answers/Embeddings call owns its
// private run state.
type Query struct {
	nodes []*data.Node     // forest preorder; nodes[i].ID == i
	t     semijoin.Target  // the index's preorder arrays
	pat   pattern.Preorder // the pattern's layout: ordinals, subtree ends, parents
	k     int
	star  int   // pattern ordinal of the output node
	path  []int // pattern ordinals, root (path[0]) to output node
	repr  []nodeRepr
	kids  [][]int // pattern children ordinals, largest subtree first
	words int     // words of one row: ⌈n/64⌉
}

// nodeRepr is one pattern node compiled: its admission row — the data
// IDs carrying all its types and satisfying all its conditions — and, for
// a plain leaf off the root-to-output path, its lift row: the admission
// row lifted along the node's edge, which is all its parent's fold needs
// of it. Both are shared with the index for a node with no extra types or
// conditions, and read-only either way.
type nodeRepr struct {
	cand bitset.Set
	lift bitset.Set // nil unless the node is a plain leaf off the path
}

// Compile prepares p for evaluation over idx. The pattern must be
// non-empty and carry an output node; the forest may be empty (the
// iterators yield nothing). An edge kind other than Child reads as a
// d-edge, as everywhere else.
func Compile(p *pattern.Pattern, idx *match.ForestIndex, _ Options) (*Query, error) {
	if p == nil || p.Root == nil {
		return nil, errors.New("stream: empty pattern")
	}
	if idx == nil {
		return nil, errors.New("stream: nil forest index")
	}
	n := idx.Forest().Size()
	q := &Query{
		nodes: idx.Forest().Nodes(),
		t:     idx.Target(),
		star:  -1,
		words: bitset.WordsFor(n),
	}
	q.pat.Fill(p)
	k := len(q.pat.Nodes)
	q.k = k
	q.repr = make([]nodeRepr, k)
	for i, u := range q.pat.Nodes {
		q.repr[i].cand = admission(u, idx, n)
		if u.Star && q.star < 0 {
			q.star = i
		}
	}
	if q.star < 0 {
		return nil, errors.New("stream: pattern has no output node")
	}
	// Children in one shared backing array, largest subtree first: the
	// bottom-up pass folds a node's first child without holding a row of
	// its own, which is what bounds a run's rows by ⌊log₂ k⌋ rather than
	// by the pattern's depth.
	end := q.pat.End
	kids := make([]int, 0, k-1)
	q.kids = make([][]int, k)
	for i := range q.kids {
		from := len(kids)
		for c := i + 1; c <= int(end[i]); c = int(end[c]) + 1 {
			kids = append(kids, c)
		}
		q.kids[i] = kids[from:len(kids):len(kids)]
	}
	for _, ks := range q.kids {
		slices.SortStableFunc(ks, func(a, b int) int { return cmp.Compare(int(end[b])-b, int(end[a])-a) })
	}
	// A plain leaf's lift depends on the forest alone, so every one the
	// bottom-up pass folds takes its lift row from the index: folding it
	// is then one AND. Any other leaf is lifted by the kernels, as the
	// output leaf is in allRows.
	for i, u := range q.pat.Nodes {
		if len(q.kids[i]) == 0 && i != q.star && len(u.Extra) == 0 && len(u.Conds) == 0 {
			q.repr[i].lift = idx.LiftBits(u.Type, u.Edge)
		}
	}
	depth := 0
	for i := q.star; i >= 0; i = int(q.pat.Parent[i]) {
		depth++
	}
	q.path = make([]int, depth)
	for i := q.star; i >= 0; i = int(q.pat.Parent[i]) {
		depth--
		q.path[depth] = i
	}
	return q, nil
}

// admission returns u's admission row over the index's n nodes: the
// index's own type row when u has no extra types or conditions, a
// private row otherwise — its type rows ANDed, then every member whose
// attributes fail a condition cleared.
func admission(u *pattern.Node, idx *match.ForestIndex, n int) bitset.Set {
	if len(u.Extra) == 0 && len(u.Conds) == 0 {
		return idx.TypeBits(u.Type)
	}
	row := bitset.New(n)
	row.CopyFrom(idx.TypeBits(u.Type))
	for _, t := range u.Extra {
		row.And(idx.TypeBits(t))
	}
	if len(u.Conds) == 0 {
		return row
	}
	nodes := idx.Forest().Nodes()
	for v := row.NextSet(0); v >= 0; v = row.NextSet(v + 1) {
		for _, c := range u.Conds {
			if val, ok := nodes[v].Attrs[c.Attr]; !ok || !c.Holds(val) {
				row.Remove(v)
				break
			}
		}
	}
	return row
}

// Size returns the compiled pattern's node count.
func (q *Query) Size() int { return q.k }
