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

// answers yields, in document order and once each, the data nodes that
// answer at least one of qs. It computes each query's answer row in turn
// and ORs it into the first's, holding one row beyond a single query's
// run.
func answers(ctx context.Context, qs []*Query, yield func(*data.Node) bool) {
	if len(qs) == 0 || qs[0] == nil || len(qs[0].nodes) == 0 {
		return
	}
	r := newRun(ctx, qs[0])
	defer r.release()
	var union bitset.Set
	owned := false
	for i, q := range qs {
		r.q = q
		row, rowOwned := r.answerRow()
		if r.done {
			return
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
	r.each(union, yield)
	if owned {
		r.put(union)
	}
}
