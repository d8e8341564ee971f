// Package match holds what evaluation shares: the inverted type index
// over a data forest (ForestIndex) with its per-type bitset rows and
// preorder arrays, the per-node admission test (TypesOK), and the
// embedding counter (CountEmbeddings). Evaluation itself runs on the twig
// engine in match/stream. Evaluation cost is what motivates minimization
// (Section 1 of the paper): it grows with pattern size, so a minimized
// pattern matches faster.
//
// Embeddings are non-anchored: the pattern root may bind to any data node.
// An embedding e maps pattern nodes to data nodes such that every type
// required by a pattern node is carried by its data image, a c-child maps
// to a child, and a d-child maps to a proper descendant. The reference
// implementations of this definition live in internal/oracle.
package match

import (
	"tpq/internal/data"
	"tpq/internal/pattern"
)

// TypesOK reports whether data node v satisfies pattern node u's local
// requirements: every required type (primary and extra) and every value
// condition. Candidates filters through it. The twig engine in
// match/stream does not call it per probe: it compiles the same test into
// one bitset per pattern node, from TypeBits rows and Candidates.
func TypesOK(u *pattern.Node, v *data.Node) bool {
	if !v.HasType(u.Type) {
		return false
	}
	for _, t := range u.Extra {
		if !v.HasType(t) {
			return false
		}
	}
	for _, c := range u.Conds {
		val, ok := v.Attrs[c.Attr]
		if !ok || !c.Holds(val) {
			return false
		}
	}
	return true
}
