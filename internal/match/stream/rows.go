package stream

import (
	"context"
	"math/bits"
	"sync"

	"tpq/internal/bitset"
	"tpq/internal/data"
	"tpq/internal/pattern"
)

// maxPooledWords bounds the row storage a pooled scratch keeps, 8 MiB: a
// run that allocated more (Embeddings' k rows over a large forest) drops
// its scratch at release, so one large run cannot pin memory in the pool.
const maxPooledWords = 1 << 20

// scratch is the row storage of one run. Rows are ⌈n/64⌉ words for the
// forest the run evaluates over; released rows wait in free for the next
// request. One sync.Pool of *scratch recycles them across runs.
type scratch struct {
	words int
	free  []bitset.Set
	held  int // words allocated, free or in use
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// run is the private state of one evaluation: the query being evaluated,
// the scratch its rows come from, and the context poll.
type run struct {
	q    *Query
	s    *scratch
	stop <-chan struct{} // ctx.Done(); nil when ctx can never be canceled
	done bool            // context canceled: stop, yield nothing more
}

// newRun takes a scratch for rows of q's forest and polls ctx once.
func newRun(ctx context.Context, q *Query) run {
	s := scratchPool.Get().(*scratch)
	if s.words != q.words {
		clear(s.free)
		*s = scratch{words: q.words, free: s.free[:0]}
	}
	r := run{q: q, s: s}
	if ctx != nil {
		r.stop = ctx.Done()
	}
	r.poll()
	return r
}

// release returns the scratch to the pool, or drops it when it grew past
// maxPooledWords. Nothing read from the run's rows may be used after it.
func (r *run) release() {
	if r.s.held <= maxPooledWords {
		scratchPool.Put(r.s)
	}
}

// row returns a scratch row with arbitrary content: every caller
// overwrites all of it.
func (r *run) row() bitset.Set {
	s := r.s
	if n := len(s.free); n > 0 {
		row := s.free[n-1]
		s.free = s.free[:n-1]
		return row
	}
	s.held += s.words
	return make(bitset.Set, s.words)
}

// put gives a scratch row back for reuse within the run.
func (r *run) put(row bitset.Set) { r.s.free = append(r.s.free, row) }

// poll checks the context; after the first observed cancellation every
// call reports true.
func (r *run) poll() bool {
	if !r.done && r.stop != nil {
		select {
		case <-r.stop:
			r.done = true
		default:
		}
	}
	return r.done
}

// answerRow computes the answer row of r.q — C(pₘ) of the package doc —
// and reports whether it is a scratch row the caller must put back
// rather than an admission row it must not write.
//
// The path is walked top-down in one row: each step rewrites C(pᵢ) in
// place into pᵢ₊₁'s admission row intersected with the children or
// descendants of C(pᵢ), then folds in pᵢ₊₁'s off-path children. A fold
// holds that row plus the off-path subtree's bottom-up rows, at most
// ⌊log₂ k⌋ + 1 (see fold), so a run holds at most ⌊log₂ k⌋ + 2 rows
// however long the path is; a union holds one more.
func (r *run) answerRow() (row bitset.Set, owned bool) {
	q := r.q
	for i, pi := range q.path {
		next := -1
		if i+1 < len(q.path) {
			next = q.path[i+1]
		}
		cand := q.repr[pi].cand
		if i == 0 {
			row = cand
		} else {
			if !owned {
				own := r.row()
				copy(own, row)
				row, owned = own, true
			}
			if q.pat.Nodes[pi].Edge == pattern.Child {
				q.t.BelowChild(row, cand, r.poll)
			} else {
				q.t.BelowDesc(row, cand, r.poll)
			}
		}
		row, owned = r.fold(row, owned, pi, next)
		if r.done {
			return nil, false
		}
	}
	return row, owned
}

// fold intersects row — u's admission row, or a scratch row within it
// when owned — with the lift of S(c) for every child c of u but skip (-1
// for none), and returns the result: S(u) without skip's branch.
//
// Children come largest subtree first. A leaf child is one AND with its
// lift row. An inner child's S(c) is a scratch row: it is lifted in
// place, and when it is the first child folded it becomes u's row;
// otherwise u's row is allocated only then. Each later child's row is
// put back once folded. So while a later child c is evaluated, u holds
// one row, and c's subtree is at most half of u's: the rows held grow
// with log₂ of the subtree size, at most ⌊log₂ size(u)⌋ + 1, not with
// its depth.
func (r *run) fold(row bitset.Set, owned bool, u, skip int) (bitset.Set, bool) {
	q := r.q
	if r.poll() {
		return nil, false
	}
	for _, c := range q.kids[u] {
		if c == skip {
			continue
		}
		s, sOwned := r.fold(q.repr[c].cand, false, c, -1)
		if r.done {
			return nil, false
		}
		row, owned = r.lift(row, owned, s, sOwned, c)
	}
	return row, owned
}

// allRows computes S(u) for every pattern node u, bottom-up in reverse
// preorder: k rows at most, one per internal node (a leaf's S is its
// admission row). Embeddings admits assignments through them, so each
// S(c) is lifted without being written: a c-edge lifts a copy.
func (r *run) allRows() []bitset.Set {
	q := r.q
	rows := make([]bitset.Set, q.k)
	for u := q.k - 1; u >= 0; u-- {
		if r.poll() {
			return nil
		}
		row, owned := q.repr[u].cand, false
		for _, c := range q.kids[u] {
			row, owned = r.lift(row, owned, rows[c], false, c)
		}
		rows[u] = row
	}
	return rows
}

// lift intersects row — a scratch row when owned, read-only otherwise —
// with the lift of s = S(c) along pattern node c's edge: the parents of
// s's members for a c-edge, their proper ancestors for a d-edge. It
// returns the result, always a scratch row. When sOwned, s is consumed:
// rewritten in place and kept as the result or put back; otherwise s is
// only read, and a c-edge lifts a scratch copy of it. A plain leaf has a
// lift row and needs no s: the lift is one AND.
func (r *run) lift(row bitset.Set, owned bool, s bitset.Set, sOwned bool, c int) (bitset.Set, bool) {
	if l := r.q.repr[c].lift; l != nil {
		if !owned {
			own := r.row()
			for i := range own {
				own[i] = row[i] & l[i]
			}
			return own, true
		}
		row.And(l)
		return row, true
	}
	if r.q.pat.Nodes[c].Edge == pattern.Child {
		if !sOwned {
			own := r.row()
			copy(own, s)
			s = own
		}
		r.q.t.LiftChild(s, r.poll)
		if owned {
			row.And(s)
			r.put(s)
			return row, true
		}
		s.And(row)
		return s, true
	}
	dst := s // an owned S(c) takes the result unless the mask is owned
	switch {
	case owned:
		dst = row
	case !sOwned:
		dst = r.row()
	}
	r.q.t.LiftDesc(dst, row, s, r.poll)
	if owned && sOwned {
		r.put(s)
	}
	return dst, true
}

// each yields the members of row in document order, polling the context
// before each.
func (r *run) each(row bitset.Set, yield func(*data.Node) bool) {
	nodes := r.q.nodes
	for wi, w := range row {
		for w != 0 {
			if r.poll() {
				return
			}
			b := bits.TrailingZeros64(w)
			w &= w - 1
			if !yield(nodes[wi<<6|b]) {
				return
			}
		}
	}
}
