// Package stream is the streaming twig-join match engine: it evaluates a
// tree pattern query over an indexed forest and yields answers — and full
// embeddings — incrementally, instead of materializing per-node candidate
// lists and answer slices the way the structural-join kernel in package
// match does. It is the one evaluation engine behind tpq.Matcher, tpqd's
// /match and tpqmatch.
//
// The design follows the holistic twig-join family (PathStack/TwigStack):
// per-type document-ordered candidate streams come from match.ForestIndex,
// and the chain of partial matches along the root-to-output path is tested
// with preorder-interval arithmetic rather than stack copies — subtree
// membership over preorder IDs is a contiguous interval, so "does this
// pattern child have an image below v" is a binary search on a candidate
// list or, for a leaf, one bitset range probe.
//
// Compile gives every pattern node an admission set: the bitset over data
// IDs of the nodes satisfying its local test (all types, all conditions),
// built from the index's per-type rows, so no probe compares type names.
// Answers walks the output node's admission set in document order; each
// candidate is admitted by two memoized relations:
//
//   - sat(u, v): the pattern subtree rooted at u embeds at v — computed
//     lazily, child-existence probes only touching candidates inside v's
//     subtree interval;
//   - pathFits(i, e): e is a feasible image for the i-th node of the
//     root-to-output path — its off-path subtrees embed below e and the
//     path prefix above continues through e's ancestors.
//
// Both memos are dense: one row per internal pattern node and one per
// path position above the output, each a (known, verdict) bitset pair
// indexed by data ID and allocated on its first write.
//
// Embeddings enumerates full assignments in pattern preorder with sat as
// an admission filter, which makes the search polynomial-delay: every
// partial assignment admitted by sat extends to at least one embedding,
// so no time is spent on dead ends between two yields.
//
// Memory ceiling: the memo rows are the only state that grows with a run,
// and they are bounded by Options.MemoryLimit — when allocating a row
// would cross the ceiling every row is dropped and the run goes on from
// empty (a shed). Shedding affects only time, never results: every memo
// verdict is recomputable. Compile-time state (candidate slices, one
// admission row per node with extra types or conditions) is bounded by
// the index itself.
package stream

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"

	"tpq/internal/bitset"
	"tpq/internal/data"
	"tpq/internal/match"
	"tpq/internal/pattern"
)

// DefaultMemoryLimit bounds a run's memoized state when Options.MemoryLimit
// is zero: 64 MiB, far above what selective queries need and low enough
// that a pathological query over a million-node forest degrades to
// recomputation instead of unbounded growth.
const DefaultMemoryLimit = 64 << 20

// cancelCheckMask amortizes context polls: the run's work counter is
// checked against ctx once per this many probes.
const cancelCheckMask = 1024 - 1

// Options configure a compiled Query.
type Options struct {
	// MemoryLimit bounds, in bytes, the auxiliary memo state of one
	// iteration: the sat and path-feasibility rows, each a pair of
	// bitsets over the forest's node IDs (2 × 8 × ⌈n/64⌉ bytes). 0 picks
	// DefaultMemoryLimit; negative means unlimited. Crossing the limit
	// sheds the rows (see MemoSheds) — results are unaffected.
	MemoryLimit int
}

// Query is a pattern compiled for streaming evaluation against one
// ForestIndex. Compile once, iterate many times; a Query is immutable
// after Compile and safe for concurrent use — every Answers/Embeddings
// call owns its private run state.
type Query struct {
	idx   *match.ForestIndex
	nodes []*data.Node // forest preorder; nodes[i].ID == i
	pidx  *pattern.Index
	k     int
	star  int   // pattern preorder ID of the output node
	path  []int // pattern IDs, root (path[0]) to output node
	repr  []nodeRepr
	par   []int   // pattern parent IDs, -1 at the root
	kids  [][]int // pattern children IDs, preorder
	words int     // words of one memo bitset: ⌈n/64⌉
	limit int     // memo byte budget; <0 unlimited

	sheds atomic.Int64
}

// nodeRepr is one pattern node's compiled candidates. cand is the
// admission set — the data IDs passing match.TypesOK(node, ·) — shared
// with the index for a node with no extra types or conditions. Internal
// nodes also keep the document-ordered candidate slice, so a d-edge probe
// touches only the candidates inside the subtree interval; a leaf's probe
// is one range test on cand.
type nodeRepr struct {
	node *pattern.Node
	leaf bool
	cand bitset.Set
	list []*data.Node // nil for leaves
}

// Compile prepares p for streaming evaluation over idx. The pattern must
// be non-empty and carry an output node; the forest may be empty (the
// iterators yield nothing).
func Compile(p *pattern.Pattern, idx *match.ForestIndex, opts Options) (*Query, error) {
	if p == nil || p.Root == nil {
		return nil, errors.New("stream: empty pattern")
	}
	star := p.OutputNode()
	if star == nil {
		return nil, errors.New("stream: pattern has no output node")
	}
	if idx == nil {
		return nil, errors.New("stream: nil forest index")
	}
	pidx := pattern.NewIndex(p)
	k := pidx.Size()
	n := idx.Forest().Size()
	q := &Query{
		idx:   idx,
		nodes: idx.Forest().Nodes(),
		pidx:  pidx,
		k:     k,
		star:  pidx.ID(star),
		repr:  make([]nodeRepr, k),
		par:   make([]int, k),
		kids:  make([][]int, k),
		words: bitset.WordsFor(n),
		limit: opts.MemoryLimit,
	}
	if q.limit == 0 {
		q.limit = DefaultMemoryLimit
	}
	for i := 0; i < k; i++ {
		u := pidx.NodeAt(i)
		rp := nodeRepr{node: u, leaf: len(u.Children) == 0}
		var list []*data.Node
		if !rp.leaf || len(u.Conds) > 0 {
			list = idx.Candidates(u)
		}
		switch {
		case len(u.Conds) > 0:
			rp.cand = bitset.New(n)
			for _, v := range list {
				rp.cand.Add(v.ID)
			}
		case len(u.Extra) > 0:
			rp.cand = bitset.New(n)
			rp.cand.CopyFrom(idx.TypeBits(u.Type))
			for _, t := range u.Extra {
				rp.cand.And(idx.TypeBits(t))
			}
		default:
			rp.cand = idx.TypeBits(u.Type)
		}
		if !rp.leaf {
			rp.list = list
		}
		q.repr[i] = rp
		q.par[i] = pidx.ParentID(i)
		if pid := q.par[i]; pid >= 0 {
			q.kids[pid] = append(q.kids[pid], i)
		}
	}
	for i := q.star; i >= 0; i = q.par[i] {
		q.path = append(q.path, i)
	}
	for l, r := 0, len(q.path)-1; l < r; l, r = l+1, r-1 {
		q.path[l], q.path[r] = q.path[r], q.path[l]
	}
	return q, nil
}

// Size returns the compiled pattern's node count.
func (q *Query) Size() int { return q.k }

// MemoSheds returns how many times iterations of this query dropped their
// memo rows to stay under the memory ceiling — cumulative across runs.
// Nonzero sheds mean the limit traded time for memory, never answers.
func (q *Query) MemoSheds() int64 { return q.sheds.Load() }

// memo is one memo row: the data IDs with a recorded verdict, and the
// verdict of each. Both are nil until the row's first write.
type memo struct {
	known, val bitset.Set
}

// run is the private per-iteration state: the memo rows, their byte
// accounting, and the amortized cancellation poll.
type run struct {
	q    *Query
	stop <-chan struct{} // ctx.Done(); nil when ctx can never be canceled
	sat  []memo          // by pattern ID
	up   []memo          // by path position
	used int             // accounted memo bytes
	tick int
	done bool // context canceled; stop yielding, never memoize
}

func (q *Query) newRun(ctx context.Context) *run {
	rows := make([]memo, q.k+len(q.path))
	r := &run{q: q, sat: rows[:q.k], up: rows[q.k:]}
	if ctx != nil {
		r.stop = ctx.Done()
	}
	r.pollCancel()
	return r
}

// pollCancel checks the context immediately — used at run start and at
// per-candidate checkpoints, where the poll is cheap relative to the work
// it guards. Inner probes go through the amortized canceled instead.
func (r *run) pollCancel() bool {
	if r.done || r.stop == nil {
		return r.done
	}
	select {
	case <-r.stop:
		r.done = true
	default:
	}
	return r.done
}

// canceled polls the context once per cancelCheckMask+1 calls. After the
// first observed cancellation every call reports true.
func (r *run) canceled() bool {
	if r.done {
		return true
	}
	r.tick++
	if r.tick&cancelCheckMask == 0 {
		return r.pollCancel()
	}
	return false
}

// get returns the recorded verdict for data ID id, if any.
func (m *memo) get(id int) (val, ok bool) {
	if m.known == nil || !m.known.Has(id) {
		return false, false
	}
	return m.val.Has(id), true
}

// put records a memo verdict in row m, one of r.sat or r.up. Allocating a
// row pair that would cross the byte ceiling first sheds every row.
func (r *run) put(m *memo, id int, val bool) {
	if m.known == nil {
		w := r.q.words
		size := 2 * 8 * w
		if r.q.limit >= 0 && r.used+size > r.q.limit {
			clear(r.sat)
			clear(r.up)
			r.used = 0
			r.q.sheds.Add(1)
		}
		pair := make(bitset.Set, 2*w)
		m.known, m.val = pair[:w:w], pair[w:]
		r.used += size
	}
	m.known.Add(id)
	if val {
		m.val.Add(id)
	}
}

// sat reports whether the pattern subtree rooted at node ui embeds at v
// with ui ↦ v. Leaf verdicts are the admission test; internal verdicts
// are memoized.
func (q *Query) sat(r *run, ui int, v *data.Node) bool {
	rep := &q.repr[ui]
	if !rep.cand.Has(v.ID) {
		return false
	}
	if rep.leaf {
		return true
	}
	m := &r.sat[ui]
	if res, ok := m.get(v.ID); ok {
		return res
	}
	if r.canceled() {
		return false
	}
	res := true
	for _, ci := range q.kids[ui] {
		if !q.exists(r, ci, v) {
			res = false
			break
		}
	}
	if r.done {
		return false
	}
	r.put(m, v.ID, res)
	return res
}

// exists reports whether pattern child ci has at least one valid image
// under v respecting its edge kind: a satisfying child of v for a c-edge,
// a satisfying node inside v's subtree interval for a d-edge. Leaf
// d-children resolve to one interval probe on their admission set.
func (q *Query) exists(r *run, ci int, v *data.Node) bool {
	rep := &q.repr[ci]
	if rep.node.Edge == pattern.Child {
		for _, ch := range v.Children {
			if q.sat(r, ci, ch) {
				return true
			}
			if r.done {
				return false
			}
		}
		return false
	}
	lo, hi := v.ID+1, v.SubtreeEnd()
	if rep.leaf {
		return rep.cand.IntersectsRange(lo, hi)
	}
	i := sort.Search(len(rep.list), func(i int) bool { return rep.list[i].ID >= lo })
	for ; i < len(rep.list) && rep.list[i].ID <= hi; i++ {
		if q.sat(r, ci, rep.list[i]) {
			return true
		}
		if r.done {
			return false
		}
	}
	return false
}

// answer reports whether v is in the answer set: the output node's subtree
// embeds at v, and the root-to-output path is feasible through v's
// ancestors with every off-path subtree embedded.
func (q *Query) answer(r *run, v *data.Node) bool {
	if !q.sat(r, q.star, v) {
		return false
	}
	return q.upOK(r, len(q.path)-1, v)
}

// upOK reports whether the path prefix above position i can be embedded,
// given path[i] ↦ d: a c-edge pins the parent image, a d-edge tries every
// proper ancestor that passes path[i-1]'s admission test.
func (q *Query) upOK(r *run, i int, d *data.Node) bool {
	if i == 0 {
		return true
	}
	cand := q.repr[q.path[i-1]].cand
	if q.repr[q.path[i]].node.Edge == pattern.Child {
		return d.Parent != nil && cand.Has(d.Parent.ID) && q.pathFits(r, i-1, d.Parent)
	}
	for e := d.Parent; e != nil; e = e.Parent {
		if !cand.Has(e.ID) {
			continue
		}
		if q.pathFits(r, i-1, e) {
			return true
		}
		if r.done {
			return false
		}
	}
	return false
}

// pathFits reports whether e, admitted for path[i], is a feasible image of
// it: every off-path child subtree embeds under e, and the path above
// continues. Memoized per (path position, data node) — the same ancestor
// is probed by many answer candidates.
func (q *Query) pathFits(r *run, i int, e *data.Node) bool {
	pi := q.path[i]
	m := &r.up[i]
	if res, ok := m.get(e.ID); ok {
		return res
	}
	if r.canceled() {
		return false
	}
	res := true
	next := q.path[i+1]
	for _, ci := range q.kids[pi] {
		if ci == next {
			continue
		}
		if !q.exists(r, ci, e) {
			res = false
			break
		}
	}
	if res {
		res = q.upOK(r, i, e)
	}
	if r.done {
		return false
	}
	r.put(m, e.ID, res)
	return res
}
