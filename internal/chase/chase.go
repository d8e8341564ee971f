// Package chase implements the chase of a tree pattern query with respect
// to integrity constraints (Section 5.1) and the paper's restricted variant
// — augmentation (Section 5.2) — which is the first step of Algorithm ACIM.
//
// The textbook chase adds, for every node n of type T1 and constraint
// T1 -> T2 (or T1 => T2), a fresh c-child (d-child) of type T2, and for
// every co-occurrence T1 ~ T2 associates type T2 with n. Applied blindly it
// can grow the query without bound (required-descendant cycles generate
// infinite chains), so augmentation restricts it three ways:
//
//  1. the constraint set must be logically closed (see ics.Set.Closure),
//  2. witnesses are added only when they can matter for a containment
//     mapping: the witness's type set must meet the query's types, or the
//     witness must sit on a required-edge chain leading to one that does
//     (chains are followed only on acyclic-required sets, so they
//     terminate),
//  3. everything added is temporary: the witnesses live in the flattened
//     query the kernels run on (scratch.go), never in the pattern, so
//     minimization treats them as images only and nothing is stripped.
//
// Under these restrictions the augmented query's size is bounded by
// O(n·k) where n is the original query size and k the number of types
// mentioned by the query and the closed constraint set; witness chains
// are no longer than k.
//
// Augmentation runs through a Plan (plan.go), compiled once per closed
// constraint set and specialized per query type set. The per-call chase
// it is checked against is internal/oracle's Augment.
package chase

import (
	"tpq/internal/ics"
	"tpq/internal/pattern"
)

// WantedWitnessTypes computes, for a closed constraint set and a base set
// of query types, every type whose chase witnesses can matter for a
// containment mapping from a query drawn from base. Query nodes carry
// only query types, so a witness of type b contributes only if its type
// set — b plus its co-occurrence targets — meets base, or (when the
// set's required edges are acyclic, so chains terminate) some type
// reachable from b through required edges qualifies: the chain then
// passes through b even though nothing maps onto b itself. Without the
// reachability case, deleting the only node of an intermediate chain
// type (as the CDM pre-filter legitimately does) would cut the witness
// chains ACIM still needs, breaking CDM;ACIM = ACIM (Theorem 5.3). The
// same predicate decides which constraints the equivalence judge may
// drop before its bounded full chase.
func WantedWitnessTypes(cs *ics.Set, base map[pattern.Type]bool) map[pattern.Type]bool {
	deep := cs.AcyclicRequired()
	memo := make(map[pattern.Type]int) // 0 unknown, 1 wanted, 2 not, 3 visiting
	var wanted func(b pattern.Type) bool
	wanted = func(b pattern.Type) bool {
		if base[b] {
			return true
		}
		switch memo[b] {
		case 1:
			return true
		case 2, 3:
			return false
		}
		memo[b] = 3
		res := false
		for _, t := range cs.CoTargets(b) {
			if base[t] {
				res = true
				break
			}
		}
		if !res && deep {
			for _, t := range cs.ChildTargets(b) {
				if wanted(t) {
					res = true
					break
				}
			}
		}
		if !res && deep {
			for _, t := range cs.DescTargets(b) {
				if wanted(t) {
					res = true
					break
				}
			}
		}
		if res {
			memo[b] = 1
		} else {
			memo[b] = 2
		}
		return res
	}
	out := make(map[pattern.Type]bool, len(base))
	for t := range base {
		out[t] = true
	}
	for _, t := range cs.Types() {
		if wanted(t) {
			out[t] = true
		}
	}
	return out
}

// WitnessTargets returns the child- and descendant-witness types to spawn
// at a node carrying types ts, restricted to wanted. Every wanted child
// target is kept — a child edge cannot be served by deeper structure —
// but a wanted descendant target is dropped when it duplicates a child
// target or, when prune is set (witness chains are grown), when another
// kept target already requires it below itself: that witness's chain
// will contain the type, and a descendant-edge query node maps across
// any depth. Without this pruning the closed set's transitive
// descendant constraints would unfold every descending type sequence
// into its own chain — exponential on deep chain workloads.
func WitnessTargets(cs *ics.Set, ts []pattern.Type, wanted map[pattern.Type]bool, prune bool) (childT, descT []pattern.Type) {
	seen := make(map[pattern.Type]bool)
	for _, t := range ts {
		for _, b := range cs.ChildTargets(t) {
			if wanted[b] && !seen[b] {
				seen[b] = true
				childT = append(childT, b)
			}
		}
	}
	var descAll []pattern.Type
	for _, t := range ts {
		for _, b := range cs.DescTargets(t) {
			if wanted[b] && !seen[b] {
				seen[b] = true
				descAll = append(descAll, b)
			}
		}
	}
	if !prune {
		return childT, descAll
	}
	// On acyclic sets coverage cannot be mutual, so checking each
	// descendant target against all other kept targets is order-free.
	for _, d := range descAll {
		covered := false
		for _, b := range childT {
			if cs.HasChild(b, d) || cs.HasDesc(b, d) {
				covered = true
				break
			}
		}
		if !covered {
			for _, b := range descAll {
				if b != d && (cs.HasChild(b, d) || cs.HasDesc(b, d)) {
					covered = true
					break
				}
			}
		}
		if !covered {
			descT = append(descT, d)
		}
	}
	return childT, descT
}

// FullChase applies the unrestricted chase for up to maxRounds rounds,
// adding nodes and types to the pattern itself. It exists to
// demonstrate — in tests and documentation — why augmentation's
// restrictions matter: with cyclic required-descendant constraints the
// unrestricted chase grows without bound, and even on acyclic sets its
// result can be much larger than the augmented query. It returns the
// number of nodes added.
func FullChase(p *pattern.Pattern, cs *ics.Set, maxRounds int) int {
	if p == nil || p.Root == nil || cs == nil {
		return 0
	}
	added := 0
	for round := 0; round < maxRounds; round++ {
		addedThisRound := 0
		for _, n := range p.Nodes() {
			for _, t := range n.Types() {
				for _, b := range cs.CoTargets(t) {
					if !n.HasType(b) {
						n.AddType(b)
						addedThisRound++
					}
				}
				for _, b := range cs.ChildTargets(t) {
					if !hasChildOfType(n, pattern.Child, b) {
						n.AddChild(pattern.Child, pattern.NewNode(b))
						addedThisRound++
					}
				}
				for _, b := range cs.DescTargets(t) {
					if !hasDescOfType(n, b) {
						n.AddChild(pattern.Descendant, pattern.NewNode(b))
						addedThisRound++
					}
				}
			}
		}
		if addedThisRound == 0 {
			return added
		}
		added += addedThisRound
	}
	return added
}

func hasChildOfType(n *pattern.Node, k pattern.EdgeKind, t pattern.Type) bool {
	for _, c := range n.Children {
		if c.Edge == k && c.HasType(t) {
			return true
		}
	}
	return false
}

func hasDescOfType(n *pattern.Node, t pattern.Type) bool {
	for _, c := range n.Children {
		if c.HasType(t) || hasDescOfType(c, t) {
			return true
		}
	}
	return false
}
