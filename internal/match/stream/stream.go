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
// list or one bitset range probe (bitset.AndIntersectsRange for two-type
// leaves, with no intersection materialized).
//
// Answers walks the output node's candidate stream in document order; each
// candidate is admitted by two memoized relations:
//
//   - sat(u, v): the pattern subtree rooted at u embeds at v — computed
//     lazily, child-existence probes only touching candidates inside v's
//     subtree interval;
//   - pathFits(i, e): e is a feasible image for the i-th node of the
//     root-to-output path — its off-path subtrees embed below e and the
//     path prefix above continues through e's ancestors.
//
// Embeddings enumerates full assignments in pattern preorder with sat as
// an admission filter, which makes the search polynomial-delay: every
// partial assignment admitted by sat extends to at least one embedding,
// so no time is spent on dead ends between two yields.
//
// Memory ceiling: the memo tables are the only state that grows with the
// result of a run, and they are bounded by Options.MemoryLimit — when an
// insert would cross the ceiling the tables are dropped and rebuilt from
// empty (a shed). Shedding affects only time, never results: every memo
// entry is recomputable. Compile-time state (candidate slices, one merged
// extra-type bitset per multi-extra leaf) is bounded by the index itself.
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

// memoEntryBytes is the accounted cost of one memo entry: a uint64 key and
// a bool in a Go map, bucket overhead included.
const memoEntryBytes = 32

// cancelCheckMask amortizes context polls: the run's work counter is
// checked against ctx once per this many probes.
const cancelCheckMask = 1024 - 1

// Options configure a compiled Query.
type Options struct {
	// MemoryLimit bounds, in bytes, the auxiliary memo state of one
	// iteration (the sat and path-feasibility tables). 0 picks
	// DefaultMemoryLimit; negative means unlimited. Crossing the limit
	// sheds the tables (see MemoSheds) — results are unaffected.
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
	limit int     // memo byte budget; <0 unlimited

	sheds atomic.Int64
}

// nodeRepr is one pattern node's candidate representation. Internal nodes
// and condition-bearing leaves carry the document-ordered candidate slice;
// plain leaves stay as shared per-type bitsets, so their existence probes
// are interval tests with no per-query candidate materialization.
type nodeRepr struct {
	node  *pattern.Node
	leaf  bool
	list  []*data.Node // nil for bitset-represented leaves
	bits  bitset.Set   // primary-type membership (owned by the index)
	extra bitset.Set   // conjunction of extra-type memberships, nil if none
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
	q := &Query{
		idx:   idx,
		nodes: idx.Forest().Nodes(),
		pidx:  pidx,
		k:     k,
		star:  pidx.ID(star),
		repr:  make([]nodeRepr, k),
		par:   make([]int, k),
		kids:  make([][]int, k),
		limit: opts.MemoryLimit,
	}
	if q.limit == 0 {
		q.limit = DefaultMemoryLimit
	}
	n := idx.Forest().Size()
	for i := 0; i < k; i++ {
		u := pidx.NodeAt(i)
		rp := nodeRepr{node: u, leaf: len(u.Children) == 0}
		if rp.leaf && len(u.Conds) == 0 {
			rp.bits = idx.TypeBits(u.Type)
			switch len(u.Extra) {
			case 0:
			case 1:
				rp.extra = idx.TypeBits(u.Extra[0])
			default:
				ex := bitset.New(n)
				ex.CopyFrom(idx.TypeBits(u.Extra[0]))
				for _, t := range u.Extra[1:] {
					ex.And(idx.TypeBits(t))
				}
				rp.extra = ex
			}
		} else {
			rp.list = idx.Candidates(u)
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
// memo tables to stay under the memory ceiling — cumulative across runs.
// Nonzero sheds mean the limit traded time for memory, never answers.
func (q *Query) MemoSheds() int64 { return q.sheds.Load() }

// run is the private per-iteration state: the memo tables, their byte
// accounting, and the amortized cancellation poll.
type run struct {
	q    *Query
	ctx  context.Context
	sat  map[uint64]bool // key: pattern ID <<32 | data ID
	up   map[uint64]bool // key: path position <<32 | data ID
	used int             // accounted memo bytes
	tick int
	done bool // context canceled; stop yielding, never memoize
}

func (q *Query) newRun(ctx context.Context) *run {
	r := &run{q: q, ctx: ctx, sat: map[uint64]bool{}, up: map[uint64]bool{}}
	r.pollCancel()
	return r
}

// pollCancel checks the context immediately — used at run start and at
// per-candidate checkpoints, where the poll is cheap relative to the work
// it guards. Inner probes go through the amortized canceled instead.
func (r *run) pollCancel() bool {
	if r.done {
		return true
	}
	if r.ctx != nil {
		select {
		case <-r.ctx.Done():
			r.done = true
		default:
		}
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
	if r.tick&cancelCheckMask == 0 && r.ctx != nil {
		select {
		case <-r.ctx.Done():
			r.done = true
		default:
		}
	}
	return r.done
}

// put records a memo verdict, shedding both tables first when the insert
// would cross the byte ceiling.
func (r *run) put(m *map[uint64]bool, key uint64, val bool) {
	if r.q.limit >= 0 && r.used+memoEntryBytes > r.q.limit {
		r.sat = map[uint64]bool{}
		r.up = map[uint64]bool{}
		r.used = 0
		r.q.sheds.Add(1)
	}
	(*m)[key] = val
	r.used += memoEntryBytes
}

// sat reports whether the pattern subtree rooted at node ui embeds at v
// with ui ↦ v. Leaf verdicts are the local type/condition test; internal
// verdicts are memoized.
func (q *Query) sat(r *run, ui int, v *data.Node) bool {
	if !match.TypesOK(q.repr[ui].node, v) {
		return false
	}
	if q.repr[ui].leaf {
		return true
	}
	key := uint64(uint32(ui))<<32 | uint64(uint32(v.ID))
	if res, ok := r.sat[key]; ok {
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
	r.put(&r.sat, key, res)
	return res
}

// exists reports whether pattern child ci has at least one valid image
// under v respecting its edge kind: a satisfying child of v for a c-edge,
// a satisfying node inside v's subtree interval for a d-edge. Plain-leaf
// d-children resolve to one interval probe on the shared type bitsets.
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
	if rep.list == nil {
		if rep.extra == nil {
			return rep.bits.IntersectsRange(lo, hi)
		}
		return rep.bits.AndIntersectsRange(rep.extra, lo, hi)
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
// proper ancestor.
func (q *Query) upOK(r *run, i int, d *data.Node) bool {
	if i == 0 {
		return true
	}
	if q.repr[q.path[i]].node.Edge == pattern.Child {
		return d.Parent != nil && q.pathFits(r, i-1, d.Parent)
	}
	for e := d.Parent; e != nil; e = e.Parent {
		if q.pathFits(r, i-1, e) {
			return true
		}
		if r.done {
			return false
		}
	}
	return false
}

// pathFits reports whether e is a feasible image of path[i]: local types
// hold, every off-path child subtree embeds under e, and the path above
// continues. Memoized per (path position, data node) — the same ancestor
// is probed by many answer candidates.
func (q *Query) pathFits(r *run, i int, e *data.Node) bool {
	pi := q.path[i]
	if !match.TypesOK(q.repr[pi].node, e) {
		return false
	}
	key := uint64(uint32(i))<<32 | uint64(uint32(e.ID))
	if res, ok := r.up[key]; ok {
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
	r.put(&r.up, key, res)
	return res
}
