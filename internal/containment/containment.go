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
// FindMapping runs on the patterns' preorder layouts (pattern.Preorder),
// with rows over q's ordinals filtered by the semijoin step of package
// semijoin. Its reference is internal/oracle's FindMappingMap.
package containment

import (
	"tpq/internal/bitset"
	"tpq/internal/pattern"
	"tpq/internal/semijoin"
)

// Mapping is a witness containment mapping from the nodes of one pattern to
// the nodes of another.
type Mapping map[*pattern.Node]*pattern.Node

// Exists reports whether a containment mapping from p to q exists.
func Exists(p, q *pattern.Pattern) bool {
	return FindMapping(p, q) != nil
}

// FindMapping returns a containment mapping from p to q, or nil if none
// exists. It runs the bottom-up dynamic program over p's ordinals in
// reverse preorder, children before parents: u's row of feasible images
// over q's ordinals is its admission row — the AND of q's rows for u's
// types, and of q's output row if u is the output node, less the members
// whose conditions do not entail u's — filtered against its children's
// rows by one semijoin step over q. The mapping takes, at every node, the
// first feasible image in preorder. O(|p|·|q|·(maxFanout + |q|/64)).
func FindMapping(p, q *pattern.Pattern) Mapping {
	if p == nil || p.Root == nil || q == nil || q.Root == nil {
		return nil
	}
	var pl, ql pattern.Preorder
	pl.Fill(p)
	ql.Fill(q)
	np, nq := len(pl.Nodes), len(ql.Nodes)
	t := semijoin.Target{Up: ql.Up, End: ql.End, Kids: ql.Kids}

	// Rows 0..np-1 are p's; then come q's output row, the filter's
	// scratch row, and q's row of each type p names.
	typeRow := make(map[pattern.Type]int)
	name := func(ty pattern.Type) {
		if _, ok := typeRow[ty]; !ok {
			typeRow[ty] = np + 2 + len(typeRow)
		}
	}
	for _, u := range pl.Nodes {
		name(u.Type)
		for _, ty := range u.Extra {
			name(ty)
		}
	}
	rows := bitset.NewMatrix(np+2+len(typeRow), nq)
	star, tmp := rows.Row(np), rows.Row(np+1)
	mark := func(ty pattern.Type, vi int) {
		if r, ok := typeRow[ty]; ok {
			rows.Row(r).Add(vi)
		}
	}
	for vi, v := range ql.Nodes {
		if v.Star {
			star.Add(vi)
		}
		mark(v.Type, vi)
		for _, ty := range v.Extra {
			mark(ty, vi)
		}
	}

	// Reverse preorder visits every node after all of its descendants.
	var buf [8]semijoin.Req
	for ui := np - 1; ui >= 0; ui-- {
		u := pl.Nodes[ui]
		row := rows.Row(ui)
		row.CopyFrom(rows.Row(typeRow[u.Type]))
		for _, ty := range u.Extra {
			row.And(rows.Row(typeRow[ty]))
		}
		if u.Star {
			row.And(star)
		}
		if len(u.Conds) > 0 {
			for vi := row.NextSet(0); vi >= 0; vi = row.NextSet(vi + 1) {
				if !ql.Nodes[vi].CondsEntail(u) {
					row.Remove(vi)
				}
			}
		}
		reqs := buf[:0]
		for ci := int32(ui) + 1; ci <= pl.End[ui]; ci = pl.End[ci] + 1 {
			reqs = append(reqs, semijoin.Req{Row: rows.Row(int(ci)), Child: pl.Nodes[ci].Edge == pattern.Child})
		}
		t.Filter(row, reqs, tmp)
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
			img := t.Image(rows.Row(ci), vi, vi, pl.Nodes[ci].Edge == pattern.Child)
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
