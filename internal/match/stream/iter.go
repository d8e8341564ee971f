package stream

import (
	"context"
	"iter"
	"sort"

	"tpq/internal/data"
	"tpq/internal/pattern"
)

// Answers returns a document-ordered, duplicate-free iterator over the
// answer set: the data nodes the pattern's output node binds to in at
// least one embedding. The sequence is computed lazily — breaking out of
// the range stops all matching work — and is cut short when ctx is
// canceled; callers that must distinguish exhaustion from cancellation
// check ctx.Err() after the loop. The iterator may be ranged over many
// times and from several goroutines; each range is an independent run.
func (q *Query) Answers(ctx context.Context) iter.Seq[*data.Node] {
	return func(yield func(*data.Node) bool) {
		if q == nil || len(q.nodes) == 0 {
			return
		}
		answers(ctx, []*Query{q}, yield)
	}
}

// Count drains Answers and returns the answer count — the streaming
// equivalent of match.CountIndexed.
func (q *Query) Count(ctx context.Context) int {
	n := 0
	for range q.Answers(ctx) {
		n++
	}
	return n
}

// Embedding is one full assignment of pattern nodes to data nodes, yielded
// by Embeddings. The underlying storage is owned by the iterator and
// reused between yields: an Embedding is valid only until the consumer's
// loop body returns. Retain one with Clone (or copy Nodes).
type Embedding struct {
	q     *Query
	nodes []*data.Node
}

// Len returns the number of pattern nodes in the assignment.
func (e Embedding) Len() int { return len(e.nodes) }

// At returns the image of the pattern node with preorder ID i.
func (e Embedding) At(i int) *data.Node { return e.nodes[i] }

// PatternNode returns the pattern node with preorder ID i.
func (e Embedding) PatternNode(i int) *pattern.Node { return e.q.repr[i].node }

// Binding returns the image of pattern node u, which must belong to the
// compiled pattern.
func (e Embedding) Binding(u *pattern.Node) *data.Node { return e.nodes[e.q.pidx.ID(u)] }

// Answer returns the image of the output node.
func (e Embedding) Answer() *data.Node { return e.nodes[e.q.star] }

// Nodes returns a fresh copy of the assignment, indexed by pattern
// preorder ID — safe to retain.
func (e Embedding) Nodes() []*data.Node {
	out := make([]*data.Node, len(e.nodes))
	copy(out, e.nodes)
	return out
}

// Clone returns an Embedding backed by private storage, safe to retain
// after the iteration advances.
func (e Embedding) Clone() Embedding { return Embedding{q: e.q, nodes: e.Nodes()} }

// Embeddings returns an iterator over every embedding of the pattern into
// the forest, in lexicographic order of the pattern-preorder assignment
// vector (document order on the first differing pattern node). The count
// can be exponential in the pattern size, but the enumeration is
// polynomial-delay: sat-admission at every assignment guarantees each
// partial assignment completes, so breaking out early — the first
// embedding, the first thousand — does no work past the break. The yielded
// Embedding's storage is reused; Clone it to retain it. Cancellation
// follows the same contract as Answers.
func (q *Query) Embeddings(ctx context.Context) iter.Seq[Embedding] {
	return func(yield func(Embedding) bool) {
		if q == nil || len(q.nodes) == 0 {
			return
		}
		r := q.newRun(ctx)
		assign := make([]*data.Node, q.k)
		e := Embedding{q: q, nodes: assign}
		var rec func(i int) bool
		rec = func(i int) bool {
			if r.canceled() {
				return false
			}
			if i == q.k {
				return yield(e)
			}
			try := func(w *data.Node) bool {
				if !q.sat(r, i, w) {
					return !r.done
				}
				assign[i] = w
				return rec(i + 1)
			}
			rep := &q.repr[i]
			if i == 0 {
				for id := rep.cand.NextSet(0); id >= 0; id = rep.cand.NextSet(id + 1) {
					if !try(q.nodes[id]) {
						return false
					}
				}
				return true
			}
			parentImg := assign[q.par[i]]
			if rep.node.Edge == pattern.Child {
				for _, ch := range parentImg.Children {
					if !try(ch) {
						return false
					}
				}
				return true
			}
			lo, hi := parentImg.ID+1, parentImg.SubtreeEnd()
			if rep.list != nil {
				j := sort.Search(len(rep.list), func(j int) bool { return rep.list[j].ID >= lo })
				for ; j < len(rep.list) && rep.list[j].ID <= hi; j++ {
					if !try(rep.list[j]) {
						return false
					}
				}
				return true
			}
			for id := rep.cand.NextInRange(lo, hi); id >= 0; id = rep.cand.NextInRange(id+1, hi) {
				if !try(q.nodes[id]) {
					return false
				}
			}
			return true
		}
		rec(0)
	}
}
