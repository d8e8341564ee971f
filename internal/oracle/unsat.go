package oracle

import (
	"tpq/internal/ics"
	"tpq/internal/pattern"
)

// UnsatisfiableUnder reports whether the query can never produce an answer
// on any database satisfying cs — the use this library makes of forbidden
// child/descendant constraints (the paper's Section 7 notes that under
// such constraints the minimal equivalent query need not be unique, so
// they do not participate in minimization; an unsatisfiable query, though,
// is equivalent to the empty answer under any definition).
//
// The check is sound and complete for the constraint forms supported:
//
//   - a node whose (co-occurrence-closed) type set includes an empty type
//     (ics.Set.EmptyTypes) can match nothing;
//   - a c-edge (x, y) conflicts when some type of x forbids some type of y
//     as a child — or as a descendant, since a child is one;
//   - an ancestor/descendant pair (w, x) — at any distance, through any
//     edge kinds — conflicts when some type of w forbids, as a descendant,
//     some type of x or some type x is *required* to have below it (the
//     chase consequences of x's types).
func UnsatisfiableUnder(p *pattern.Pattern, cs *ics.Set) bool {
	if p == nil || p.Root == nil || cs == nil {
		return false
	}
	// Only forbidden forms can make a query unsatisfiable; closure never
	// introduces one from required/co-occurrence forms alone.
	if !cs.HasForbidden() {
		return false
	}
	if !cs.IsClosed() {
		cs = cs.Closure()
	}
	empty := cs.EmptyTypes()

	// Effective type set of each node: declared types plus co-occurrence
	// consequences.
	effective := func(n *pattern.Node) []pattern.Type {
		seen := map[pattern.Type]bool{}
		var out []pattern.Type
		for _, t := range n.Types() {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
			for _, u := range cs.CoTargets(t) {
				if !seen[u] {
					seen[u] = true
					out = append(out, u)
				}
			}
		}
		return out
	}

	unsat := false
	nodes := p.Nodes()
	eff := make(map[*pattern.Node][]pattern.Type, len(nodes))
	for _, n := range nodes {
		eff[n] = effective(n)
		for _, t := range eff[n] {
			if empty[t] {
				unsat = true
			}
		}
	}
	if unsat {
		return true
	}

	// below[x]: the types guaranteed to occur strictly below a match of x —
	// x's own required descendants, per the closed set.
	for _, w := range nodes {
		for _, x := range nodes {
			if !w.IsAncestorOf(x) {
				continue
			}
			for _, tw := range eff[w] {
				// Direct c-edge conflict.
				if x.Parent == w && x.Edge == pattern.Child {
					for _, tx := range eff[x] {
						if cs.HasForbidChild(tw, tx) {
							return true
						}
					}
				}
				for _, tx := range eff[x] {
					if cs.HasForbidDesc(tw, tx) {
						return true
					}
					// Chase consequences of x's types also live below w.
					for _, b := range cs.DescTargets(tx) {
						if cs.HasForbidDesc(tw, b) {
							return true
						}
					}
				}
			}
		}
	}
	return false
}
