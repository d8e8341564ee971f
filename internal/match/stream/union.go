package stream

import (
	"context"
	"iter"

	"tpq/internal/bitset"
	"tpq/internal/data"
)

// UnionAnswers yields the answers of several queries compiled against the
// same index as one document-ordered, duplicate-free stream: the
// evaluation semantics of a disjunctive pattern, where a data node
// answers iff it answers some disjunct. The union's answer row is the OR
// of the disjuncts' answer rows, so an answer produced by several
// disjuncts is delivered once. The contract is Answers': evaluation runs
// when the range starts, yields are lazy, and breaking out of the range
// or canceling ctx stops them. A single query needs no union: its own
// iterator is returned.
func UnionAnswers(ctx context.Context, qs []*Query) iter.Seq[*data.Node] {
	if len(qs) == 1 {
		return qs[0].Answers(ctx)
	}
	return func(yield func(*data.Node) bool) {
		answers(ctx, qs, yield)
	}
}

// UnionCount returns the number of data nodes that answer at least one
// of qs, compiled against the same index: the popcount of the union's
// answer row, with no per-answer work. A run canceled before its row is
// complete counts 0; check ctx.Err() to tell that from an empty answer
// set. Query.Count is its one-query case.
func UnionCount(ctx context.Context, qs []*Query) int {
	if len(qs) == 0 || qs[0] == nil || len(qs[0].nodes) == 0 {
		return 0
	}
	r := newRun(ctx, qs[0])
	defer r.release()
	row, owned := r.unionRow(qs)
	if r.done {
		return 0
	}
	n := row.Count()
	if owned {
		r.put(row)
	}
	return n
}

// answers yields, in document order and once each, the data nodes that
// answer at least one of qs.
func answers(ctx context.Context, qs []*Query, yield func(*data.Node) bool) {
	if len(qs) == 0 || qs[0] == nil || len(qs[0].nodes) == 0 {
		return
	}
	r := newRun(ctx, qs[0])
	defer r.release()
	row, owned := r.unionRow(qs)
	if r.done {
		return
	}
	r.each(row, yield)
	if owned {
		r.put(row)
	}
}

// unionRow computes the answer row of the union of qs and reports
// whether it is a scratch row the caller must put back. It computes each
// query's answer row in turn and ORs it into the first's, holding one
// row beyond a single query's run.
func (r *run) unionRow(qs []*Query) (union bitset.Set, owned bool) {
	for i, q := range qs {
		r.q = q
		row, rowOwned := r.answerRow()
		if r.done {
			return nil, false
		}
		if i == 0 {
			union, owned = row, rowOwned
			continue
		}
		if !owned {
			own := r.row()
			copy(own, union)
			union, owned = own, true
		}
		union.Or(row)
		if rowOwned {
			r.put(row)
		}
	}
	return union, owned
}
