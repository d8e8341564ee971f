package tpq

import (
	"context"
	"iter"
	"math/big"

	"tpq/internal/match"
	"tpq/internal/match/stream"
)

// MatcherOptions configure a Matcher, mirroring MinimizerOptions: build
// once over a database, evaluate many queries against it.
type MatcherOptions struct {
	// Forest is the database to evaluate against. Ignored when Index is
	// set; nil with a nil Index means an empty database.
	Forest *Forest
	// Index is a prebuilt inverted index over the database. Set it to
	// share one index between a Matcher and other consumers (cmd/tpqd
	// does); when nil, the Matcher builds its own from Forest.
	Index *MatchIndex
}

// MatchQuery is a pattern compiled for streaming evaluation; see
// Matcher.Compile. Compile once, iterate many times — a MatchQuery is
// immutable and safe for concurrent use.
type MatchQuery = stream.Query

// Embedding is one full assignment of pattern nodes to database nodes,
// yielded by the embedding iterators. Its storage is reused between
// yields: retain one past the loop body with Clone.
type Embedding = stream.Embedding

// Matcher is a long-lived evaluation instance over one database: an
// inverted type index shared by every query, feeding a twig engine that
// evaluates set-at-a-time on bitset rows over preorder IDs and yields
// answers and embeddings through iterators. A run costs O(k·n) for a
// k-node pattern over an n-node database and holds O(log k) rows of n
// bits, bounded by construction. It is safe for concurrent use. Prefer it
// over the package-level Match helpers whenever more than a handful of
// queries run against the same forest.
type Matcher struct {
	idx *MatchIndex
}

// NewMatcher returns a Matcher with the given options.
func NewMatcher(opts MatcherOptions) *Matcher {
	idx := opts.Index
	if idx == nil {
		f := opts.Forest
		if f == nil {
			f = NewForest()
		}
		idx = match.NewForestIndex(f)
	}
	return &Matcher{idx: idx}
}

// Index returns the Matcher's inverted index, for sharing with other
// consumers. Callers must treat it as read-only.
func (m *Matcher) Index() *MatchIndex { return m.idx }

// Forest returns the database the Matcher evaluates against.
func (m *Matcher) Forest() *Forest { return m.idx.Forest() }

// Compile prepares p for streaming evaluation. It fails when p is empty
// or has no output node; an edge kind other than Child reads as
// Descendant, as in every other part of the package. The result can be
// iterated concurrently and is the way to evaluate one query repeatedly
// without re-deriving its candidate representation.
func (m *Matcher) Compile(p *Pattern) (*MatchQuery, error) {
	return stream.Compile(p, m.idx, stream.Options{})
}

// Answers returns a document-ordered, duplicate-free iterator over the
// answer set of p: the database nodes the output node binds to in at
// least one embedding. Evaluation runs when the range starts and costs
// O(k·n) whatever number of answers is taken; yields are then lazy, in
// document order, and breaking out of the range stops them. Canceling
// ctx stops the evaluation and the yields (check ctx.Err() after the
// loop to distinguish exhaustion from cancellation). An invalid pattern
// yields nothing — use Compile to observe the error.
func (m *Matcher) Answers(ctx context.Context, p *Pattern) iter.Seq[*DataNode] {
	q, err := m.Compile(p)
	if err != nil {
		return func(func(*DataNode) bool) {}
	}
	return q.Answers(ctx)
}

// Embeddings returns a lazy iterator over every embedding of p, in
// lexicographic pattern-preorder order. The enumeration is
// polynomial-delay: after one O(k·n) pass that keeps a row per internal
// pattern node, taking the first j embeddings of a potentially
// exponential set does work proportional to j. The yielded Embedding's
// storage is reused between yields — Clone it to retain it. Cancellation
// and invalid patterns behave as in Answers.
func (m *Matcher) Embeddings(ctx context.Context, p *Pattern) iter.Seq[Embedding] {
	q, err := m.Compile(p)
	if err != nil {
		return func(func(Embedding) bool) {}
	}
	return q.Embeddings(ctx)
}

// AnswersDisjunction returns a document-ordered, duplicate-free iterator
// over the answer set of a disjunctive query: the union of the
// disjuncts' answer sets, the OR of their answer rows, yielded as in
// Answers. Cancellation and invalid
// disjuncts behave as in Answers (a disjunct that fails to compile
// yields nothing; compile the disjuncts individually to observe errors).
func (m *Matcher) AnswersDisjunction(ctx context.Context, d *Disjunction) iter.Seq[*DataNode] {
	if d == nil || len(d.Disjuncts) == 0 {
		return func(func(*DataNode) bool) {}
	}
	qs := make([]*stream.Query, 0, len(d.Disjuncts))
	for _, p := range d.Disjuncts {
		if q, err := m.Compile(p); err == nil {
			qs = append(qs, q)
		}
	}
	return stream.UnionAnswers(ctx, qs)
}

// MatchDisjunction materializes the full answer set of a disjunctive
// query in document order; see AnswersDisjunction.
func (m *Matcher) MatchDisjunction(d *Disjunction) []*DataNode {
	var out []*DataNode
	for v := range m.AnswersDisjunction(context.Background(), d) {
		out = append(out, v)
	}
	return out
}

// Match materializes the full answer set of p in document order — the
// drained Answers iterator, for callers that want the slice.
func (m *Matcher) Match(p *Pattern) []*DataNode {
	var out []*DataNode
	for v := range m.Answers(context.Background(), p) {
		out = append(out, v)
	}
	return out
}

// Count returns the number of answers of p, 0 for an invalid pattern.
func (m *Matcher) Count(p *Pattern) int {
	q, err := m.Compile(p)
	if err != nil {
		return 0
	}
	return q.Count(context.Background())
}

// CountEmbeddings returns the number of distinct full embeddings of p as
// a big integer, 0 for an invalid pattern. The count can be exponential
// in the pattern size, so it is computed on the compiled query by one
// bottom-up product-of-sums pass, without enumerating; use Embeddings to
// visit the embeddings themselves.
func (m *Matcher) CountEmbeddings(p *Pattern) *big.Int {
	q, err := m.Compile(p)
	if err != nil {
		return new(big.Int)
	}
	return q.CountEmbeddings(context.Background())
}
