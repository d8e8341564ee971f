// Package containment decides containment and equivalence of tree pattern
// queries via containment mappings, the adaptation of Chandra-Merlin
// homomorphisms described in Section 4 of "Minimization of Tree Pattern
// Queries" (SIGMOD 2001).
//
// A containment mapping h from a query P to a query Q maps P's nodes to Q's
// nodes such that
//
//  1. h preserves node types (every type required at x is carried by h(x))
//     and h(x) is the output node iff x is;
//  2. whenever y is a c-child of x in P, h(y) is a c-child of h(x) in Q, and
//     whenever y is a d-child of x, h(y) is a proper descendant of h(x)
//     (reachable through any mix of child and descendant edges).
//
// Embedding semantics are non-anchored: a pattern's root may embed at any
// node of a data tree, so h may map P's root to any node of Q. With types
// drawn from an unbounded alphabet and no wildcards, Q ⊆ P holds iff such a
// mapping P → Q exists; package tests cross-validate this against
// brute-force evaluation over canonical databases.
//
// FindMapping runs on the patterns' preorder layouts (pattern.Preorder):
// feasibility rows are bitsets over q's preorder ordinals (package
// bitset), seeded from per-type candidate lists of q, with descendant
// checks answered by one preorder-interval probe per row. The nested-map
// dynamic program it is checked against is internal/oracle's
// FindMappingMap.
package containment

import (
	"tpq/internal/bitset"
	"tpq/internal/pattern"
)

// Mapping is a witness containment mapping from the nodes of one pattern to
// the nodes of another.
type Mapping map[*pattern.Node]*pattern.Node

// Exists reports whether a containment mapping from p to q exists.
func Exists(p, q *pattern.Pattern) bool {
	return FindMapping(p, q) != nil
}

// FindMapping returns a containment mapping from p to q, or nil if none
// exists.
//
// It runs the standard bottom-up dynamic program on the preorder layouts
// of p and q: for each node u of p (children before parent, by walking
// p's ordinals in reverse) the feasible images form a bitset row over q's
// ordinals. Rows are seeded from q's candidate list for u's primary type —
// only label-compatible nodes are ever visited — and a d-child's
// structural check is a single range probe of the child's row against the
// candidate's subtree interval. Children on both sides are enumerated by
// hopping subtree ends, so no node-keyed maps are built. The mapping
// takes, at every node, the first feasible image in preorder. Worst-case
// time O(|p|·|q|·(maxFanout + |q|/64)).
func FindMapping(p, q *pattern.Pattern) Mapping {
	if p == nil || p.Root == nil || q == nil || q.Root == nil {
		return nil
	}
	var pl, ql pattern.Preorder
	pl.Fill(p)
	ql.Fill(q)
	np, nq := len(pl.Nodes), len(ql.Nodes)

	// q's ordinals by type (primary and extra), ascending.
	cands := make(map[pattern.Type][]int32)
	for vi, v := range ql.Nodes {
		cands[v.Type] = append(cands[v.Type], int32(vi))
		for _, t := range v.Extra {
			cands[t] = append(cands[t], int32(vi))
		}
	}

	rows := bitset.NewMatrix(np, nq)

	// Reverse preorder visits every node after all of its descendants.
	for ui := np - 1; ui >= 0; ui-- {
		u := pl.Nodes[ui]
		row := rows.Row(ui)
		uEnd := pl.End[ui]
	candidates:
		for _, vi := range cands[u.Type] {
			if !labelCompatible(u, ql.Nodes[vi]) {
				continue
			}
			for ci := int32(ui) + 1; ci <= uEnd; ci = pl.End[ci] + 1 {
				if pickChildImage(pl.Nodes[ci].Edge, int(vi), rows.Row(int(ci)), &ql) < 0 {
					continue candidates
				}
			}
			row.Add(int(vi))
		}
	}

	// Pick the first image of the root, then reconstruct the mapping
	// top-down by choosing, for each child, the first compatible image
	// under its parent's image.
	rootImage := rows.Row(0).NextSet(0)
	if rootImage < 0 {
		return nil
	}
	m := Mapping{p.Root: ql.Nodes[rootImage]}
	var build func(ui, vi int) bool
	build = func(ui, vi int) bool {
		for ci := ui + 1; ci <= int(pl.End[ui]); ci = int(pl.End[ci]) + 1 {
			img := pickChildImage(pl.Nodes[ci].Edge, vi, rows.Row(ci), &ql)
			if img < 0 {
				return false // cannot happen if the DP is correct
			}
			m[pl.Nodes[ci]] = ql.Nodes[img]
			if !build(ci, img) {
				return false
			}
		}
		return true
	}
	if !build(0, rootImage) {
		return nil
	}
	return m
}

// pickChildImage returns the first ordinal of q, in preorder, that is a
// feasible image (per row) of a pattern child with the given edge kind
// and is correctly related to the candidate parent image vi, or -1.
func pickChildImage(edge pattern.EdgeKind, vi int, row bitset.Set, ql *pattern.Preorder) int {
	end := int(ql.End[vi])
	if edge == pattern.Child {
		for wi := vi + 1; wi <= end; wi = int(ql.End[wi]) + 1 {
			if ql.Nodes[wi].Edge == pattern.Child && row.Has(wi) {
				return wi
			}
		}
		return -1
	}
	return row.NextInRange(vi+1, end)
}

// labelCompatible implements condition (1): type-set inclusion plus output
// preservation. The output node must map to the output node; a non-output
// node may map anywhere, including onto the output node. (The paper words
// the condition as "iff", but the strict form is incomplete: in
// OrgUnit[/Dept/..., //Dept*/...] ⊇ OrgUnit/Dept*[...] the non-output Dept
// must land on the output Dept. Soundness needs only h(*) = *.)
func labelCompatible(u, v *pattern.Node) bool {
	if u.Star && !v.Star {
		return false
	}
	return u.TypesSubsetOf(v) && v.CondsEntail(u)
}

// Verify checks that m is a valid containment mapping from p to q. It is
// used by tests to validate witnesses returned by FindMapping.
func Verify(p, q *pattern.Pattern, m Mapping) bool {
	if m == nil {
		return false
	}
	qSet := make(map[*pattern.Node]bool)
	q.Walk(func(v *pattern.Node) { qSet[v] = true })
	ok := true
	p.Walk(func(u *pattern.Node) {
		v := m[u]
		if v == nil || !qSet[v] || !labelCompatible(u, v) {
			ok = false
			return
		}
		if u.Parent == nil {
			return
		}
		pv := m[u.Parent]
		if u.Edge == pattern.Child {
			if v.Parent != pv || v.Edge != pattern.Child {
				ok = false
			}
		} else if !pv.IsAncestorOf(v) {
			ok = false
		}
	})
	return ok
}

// Contains reports whether p contains q, i.e. q's answer set is a subset of
// p's on every database: q ⊆ p iff a containment mapping p → q exists.
func Contains(p, q *pattern.Pattern) bool { return Exists(p, q) }

// ContainedIn reports whether p ⊆ q.
func ContainedIn(p, q *pattern.Pattern) bool { return Exists(q, p) }

// Equivalent reports whether p and q return the same answer on every
// database (two-way containment).
func Equivalent(p, q *pattern.Pattern) bool {
	return Exists(p, q) && Exists(q, p)
}
