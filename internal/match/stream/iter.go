package stream

import (
	"context"
	"iter"
	"math/big"

	"tpq/internal/data"
	"tpq/internal/pattern"
)

// Answers returns a document-ordered, duplicate-free iterator over the
// answer set: the data nodes the pattern's output node binds to in at
// least one embedding. Evaluation runs when the range starts: the two
// passes compute the whole answer row, O(k·n) for a k-node pattern over
// an n-node forest, before the first yield. Yields are then lazy, in
// document order; breaking out of the range stops the yielding, so a
// prefix of the answers costs the evaluation plus the prefix. ctx is
// polled between pattern nodes, every 1,024 words inside a pass and
// before each yield; a canceled run yields nothing more, and callers that
// must distinguish exhaustion from cancellation check ctx.Err() after the
// loop. The iterator may be ranged over many times and from several
// goroutines; each range is an independent run.
func (q *Query) Answers(ctx context.Context) iter.Seq[*data.Node] {
	return func(yield func(*data.Node) bool) {
		qs := [1]*Query{q}
		answers(ctx, qs[:], yield)
	}
}

// Count returns the number of answers: the popcount of the answer row,
// with no per-answer work (UnionCount of q alone). A run canceled before
// its row is complete counts 0; check ctx.Err() to tell that from an
// empty answer set.
func (q *Query) Count(ctx context.Context) int {
	qs := [1]*Query{q}
	return UnionCount(ctx, qs[:])
}

// CountEmbeddings returns the number of embeddings — full assignments of
// pattern nodes to data nodes, not distinct answers — as a big integer:
// the count can be exponential in the pattern size. It runs the
// product-of-sums program bottom-up over the compiled pattern. emb(u, v),
// the number of embeddings of u's subtree with u ↦ v, is zero off S(u)
// (the rows Embeddings admits through) and otherwise the product, over
// u's children c, of the sum of emb(c, w) over c's images w under v: v's
// children for a c-edge, its proper descendants for a d-edge. The count
// is the sum of emb(root, v). ctx is polled between pattern nodes; a
// canceled run counts 0, as Count does.
func (q *Query) CountEmbeddings(ctx context.Context) *big.Int {
	total := new(big.Int)
	if q == nil || len(q.nodes) == 0 {
		return total
	}
	r := newRun(ctx, q)
	defer r.release()
	rows := r.allRows()
	if r.done {
		return total
	}
	defer func() {
		for u, row := range rows {
			if len(q.kids[u]) > 0 {
				r.put(row)
			}
		}
	}()
	// emb[u][v], nil off S(u). Every cell of a leaf is one shared 1; a
	// node's row is dropped once its parent has summed it.
	one := big.NewInt(1)
	emb := make([][]*big.Int, q.k)
	for u := q.k - 1; u >= 0; u-- {
		if r.poll() {
			return total
		}
		s := rows[u]
		row := make([]*big.Int, len(q.nodes))
		if len(q.kids[u]) == 0 {
			for v := s.NextSet(0); v >= 0; v = s.NextSet(v + 1) {
				row[v] = one
			}
		}
		for i, c := range q.kids[u] {
			// Every v of S(u) has an image of c below it, so sums[v] is
			// set; the sums are fresh, so the first child's become u's.
			sums := q.childSums(emb[c], q.pat.Nodes[c].Edge == pattern.Child)
			emb[c] = nil
			for v := s.NextSet(0); v >= 0; v = s.NextSet(v + 1) {
				if i == 0 {
					row[v] = sums[v]
				} else {
					row[v].Mul(row[v], sums[v])
				}
			}
		}
		emb[u] = row
	}
	for _, x := range emb[0] {
		if x != nil {
			total.Add(total, x)
		}
	}
	return total
}

// childSums returns, for every data node v, the sum of emb over v's
// children (child) or over its proper descendants, nil for zero. The
// descendant sums take one reverse pass over the forest's parents: in
// reverse preorder every node's own sum is final before it is folded
// into its parent's.
func (q *Query) childSums(emb []*big.Int, child bool) []*big.Int {
	sums := make([]*big.Int, len(q.nodes))
	add := func(i int32, x *big.Int) {
		switch {
		case x == nil:
		case sums[i] == nil:
			sums[i] = new(big.Int).Set(x)
		default:
			sums[i].Add(sums[i], x)
		}
	}
	for v := len(q.nodes) - 1; v >= 0; v-- {
		if p := q.t.Up[v]; p >= 0 {
			add(p, emb[v])
			if !child {
				add(p, sums[v])
			}
		}
	}
	return sums
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
func (e Embedding) PatternNode(i int) *pattern.Node { return e.q.pat.Nodes[i] }

// Binding returns the image of pattern node u, or nil when u is not a
// node of the compiled pattern. It scans the compiled nodes; At is the
// constant-time form.
func (e Embedding) Binding(u *pattern.Node) *data.Node {
	for i, n := range e.q.pat.Nodes {
		if n == u {
			return e.nodes[i]
		}
	}
	return nil
}

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
// polynomial-delay: it admits an image of pattern node u only from S(u),
// the row of data nodes where u's subtree embeds, so every partial
// assignment completes and no time goes to dead ends between two yields.
// Those rows cost memory: one row of ⌈n/64⌉ words per internal pattern
// node, computed when the range starts, where Answers holds O(log k). The
// yielded Embedding's storage is reused; Clone it to retain it.
// Cancellation follows the same contract as Answers.
func (q *Query) Embeddings(ctx context.Context) iter.Seq[Embedding] {
	return func(yield func(Embedding) bool) {
		if q == nil || len(q.nodes) == 0 {
			return
		}
		r := newRun(ctx, q)
		defer r.release()
		rows := r.allRows()
		if r.done {
			return
		}
		assign := make([]*data.Node, q.k)
		img := make([]int, q.k)
		e := Embedding{q: q, nodes: assign}
		var rec func(i int) bool
		rec = func(i int) bool {
			if i == q.k {
				return !r.poll() && yield(e)
			}
			row := rows[i]
			if i == 0 {
				for v := row.NextSet(0); v >= 0; v = row.NextSet(v + 1) {
					img[0], assign[0] = v, q.nodes[v]
					if !rec(1) {
						return false
					}
				}
				return true
			}
			p := img[q.pat.Parent[i]]
			child := q.pat.Nodes[i].Edge == pattern.Child
			for v := q.t.Image(row, p, p, child); v >= 0; v = q.t.Image(row, p, v, child) {
				img[i], assign[i] = v, q.nodes[v]
				if !rec(i + 1) {
					return false
				}
			}
			return true
		}
		rec(0)
		for u, row := range rows {
			if len(q.kids[u]) > 0 {
				r.put(row)
			}
		}
	}
}
