package stream

import (
	"context"
	"iter"

	"tpq/internal/data"
)

// UnionAnswers merges the answer streams of several compiled queries into
// one document-ordered, duplicate-free stream: the evaluation semantics
// of a disjunctive pattern, where a data node answers iff it answers some
// disjunct. Each per-query stream already yields ascending node IDs
// (document order), so the union is a k-way merge that advances every
// stream sitting on the yielded ID — an answer produced by several
// disjuncts is delivered once. Laziness is preserved: breaking out of the
// range, or canceling ctx, stops all per-query evaluation work. A single
// query needs no merge: its own iterator is returned, with no coroutine
// switch per answer.
func UnionAnswers(ctx context.Context, qs []*Query) iter.Seq[*data.Node] {
	if len(qs) == 1 {
		return qs[0].Answers(ctx)
	}
	return func(yield func(*data.Node) bool) {
		next := make([]func() (*data.Node, bool), len(qs))
		heads := make([]*data.Node, len(qs))
		for i, q := range qs {
			var stop func()
			next[i], stop = iter.Pull(q.Answers(ctx))
			defer stop()
			if v, ok := next[i](); ok {
				heads[i] = v
			}
		}
		for {
			min := -1
			for i, h := range heads {
				if h != nil && (min < 0 || h.ID < heads[min].ID) {
					min = i
				}
			}
			if min < 0 {
				return
			}
			v := heads[min]
			for i, h := range heads {
				if h == nil || h.ID != v.ID {
					continue
				}
				if w, ok := next[i](); ok {
					heads[i] = w
				} else {
					heads[i] = nil
				}
			}
			if !yield(v) {
				return
			}
		}
	}
}
