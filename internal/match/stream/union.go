package stream

import (
	"context"
	"iter"

	"tpq/internal/data"
)

// UnionAnswers merges the answer streams of several queries compiled
// against the same index into one document-ordered, duplicate-free
// stream: the evaluation semantics of a disjunctive pattern, where a data
// node answers iff it answers some disjunct. The merge runs on cursors
// over the queries' output-node candidates (see answers), so an answer
// produced by several disjuncts is delivered once and no query runs in a
// coroutine of its own. Laziness is preserved: breaking out of the range,
// or canceling ctx, stops all per-query evaluation work. A single query
// needs no merge: its own iterator is returned.
func UnionAnswers(ctx context.Context, qs []*Query) iter.Seq[*data.Node] {
	if len(qs) == 1 {
		return qs[0].Answers(ctx)
	}
	return func(yield func(*data.Node) bool) {
		answers(ctx, qs, yield)
	}
}

// answers yields, in document order and once each, the data nodes that
// answer at least one of qs. It keeps one cursor per query over its
// output node's admission set. Each step takes the smallest candidate ID
// among the cursors, runs answer on each query whose cursor sits on it
// until one admits it, and advances those cursors; the node is yielded
// if any query admitted it.
func answers(ctx context.Context, qs []*Query, yield func(*data.Node) bool) {
	runs := make([]*run, len(qs))
	at := make([]int, len(qs)) // each cursor's candidate ID, -1 once exhausted
	for i, q := range qs {
		runs[i] = q.newRun(ctx)
		at[i] = q.repr[q.star].cand.NextSet(0)
	}
	for {
		id := -1
		for _, a := range at {
			if a >= 0 && (id < 0 || a < id) {
				id = a
			}
		}
		if id < 0 {
			return
		}
		hit := false
		for i, q := range qs {
			if at[i] != id {
				continue
			}
			r := runs[i]
			if r.pollCancel() {
				return
			}
			hit = hit || q.answer(r, q.nodes[id])
			if r.done {
				return
			}
			at[i] = q.repr[q.star].cand.NextSet(id + 1)
		}
		if hit && !yield(qs[0].nodes[id]) {
			return
		}
	}
}
