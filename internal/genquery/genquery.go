// Package genquery generates tree pattern queries and constraint sets with
// controlled redundancy structure — the workloads of the paper's
// experimental study (Section 6). Each generator documents which figure it
// feeds and what the minimizers are expected to do to its output; the
// package tests verify those expectations by actually running CIM, ACIM
// and CDM.
package genquery

import (
	"fmt"
	"math/rand"

	"tpq/internal/ics"
	"tpq/internal/pattern"
)

// T builds the numbered type names the generators use ("t0", "t1", ...).
func T(i int) pattern.Type { return pattern.Type(fmt.Sprintf("t%d", i)) }

// Chain returns a right-deep chain of n nodes (t0/t1/.../t(n-1), output
// node at the root) together with the n-1 required-child constraints
// t(i) -> t(i+1).
//
// Every non-root node is locally redundant under the constraints, so both
// CDM and ACIM reduce the query to its root — and they remove the same
// node set, which is what Figure 9(a) needs. With n = 101 this is also the
// Figure 7(b) workload (101 nodes, 100 constraints, everything but the
// root redundant).
func Chain(n int) (*pattern.Pattern, *ics.Set) {
	if n < 1 {
		panic("genquery: Chain needs n >= 1")
	}
	root := pattern.NewStar(T(0))
	cs := ics.NewSet()
	cur := root
	for i := 1; i < n; i++ {
		cur = cur.Child(T(i))
		cs.Add(ics.Child(T(i-1), T(i)))
	}
	return pattern.New(root), cs
}

// Bushy returns a complete tree with the given fanout and n nodes (the
// last level may be partial), each node a distinct type, the output node
// at the root, and a required-child constraint per edge type pair.
// As with Chain, everything below the root is locally redundant; the shape
// differs, which is what Figure 8(b) compares ("right-deep and bushy tree
// pattern queries have very similar performance").
func Bushy(n, fanout int) (*pattern.Pattern, *ics.Set) {
	if n < 1 || fanout < 1 {
		panic("genquery: Bushy needs n >= 1 and fanout >= 1")
	}
	root := pattern.NewStar(T(0))
	cs := ics.NewSet()
	queue := []*pattern.Node{root}
	next := 1
	for next < n {
		parent := queue[0]
		queue = queue[1:]
		for f := 0; f < fanout && next < n; f++ {
			child := parent.Child(T(next))
			cs.Add(ics.Child(parent.Type, child.Type))
			queue = append(queue, child)
			next++
		}
	}
	return pattern.New(root), cs
}

// Star returns a root with n-1 leaf c-children of distinct types and the
// co-occurrence chain t1 ~ t2, t2 ~ t3, ...: under the closed set every
// child except t1 is covered by t1, so CDM deletes n-2 nodes — and because
// each deletion rescans the remaining siblings, the work at the root is
// quadratic in the fanout, the trend of the third curve of Figure 8(b).
func Star(n int) (*pattern.Pattern, *ics.Set) {
	if n < 2 {
		panic("genquery: Star needs n >= 2")
	}
	root := pattern.NewStar(T(0))
	cs := ics.NewSet()
	for i := 1; i < n; i++ {
		root.Child(T(i))
		if i >= 2 {
			cs.Add(ics.Co(T(i-1), T(i)))
		}
	}
	return pattern.New(root), cs
}

// Redundant returns a query of exactly the given size in which redNodes
// leaves are structurally redundant, each with redundancy degree redDegree
// (the number of distinct images it can map to) — the knobs of the
// Figure 7(a) experiment. No constraints are needed for the redundancy
// itself; pair the query with RelevantConstraints for the 0/50/100/150
// curves.
//
// Layout: the root carries redDegree "target" branches (a d-child of the
// shared type "red" with one c-child of a branch-distinct type, so targets
// are mutually non-redundant), redNodes bare d-child leaves of type "red"
// (each maps onto any target), and a c-edge filler chain of distinct types
// to reach the requested size. Minimum size is 1 + 2*redDegree + redNodes.
func Redundant(size, redNodes, redDegree int) *pattern.Pattern {
	if redDegree < 1 || redNodes < 0 {
		panic("genquery: Redundant needs redDegree >= 1, redNodes >= 0")
	}
	min := 1 + 2*redDegree + redNodes
	if size < min {
		panic(fmt.Sprintf("genquery: Redundant size %d below minimum %d", size, min))
	}
	const redType = pattern.Type("red")
	root := pattern.NewStar(T(0))
	for j := 0; j < redDegree; j++ {
		target := root.AddChild(pattern.Descendant, pattern.NewNode(redType))
		target.Child(pattern.Type(fmt.Sprintf("u%d", j)))
	}
	for k := 0; k < redNodes; k++ {
		root.AddChild(pattern.Descendant, pattern.NewNode(redType))
	}
	cur := root
	for i := min; i < size; i++ {
		cur = cur.Child(pattern.Type(fmt.Sprintf("f%d", i)))
	}
	return pattern.New(root)
}

// Fan returns a query with the output node at the root and n-1 leaf
// c-children of distinct types v1..v(n-1). On its own nothing is
// redundant; FanRedundancy makes a chosen number of leaves redundant via
// integrity constraints. Because the query — and so the per-type node
// counts driving the images tables — is identical for every redundancy
// level, this is the workload for Figure 7(a)/(b): ACIM time stays flat as
// redundancy varies at fixed query size.
func Fan(n int) *pattern.Pattern {
	if n < 1 {
		panic("genquery: Fan needs n >= 1")
	}
	root := pattern.NewStar(T(0))
	for i := 1; i < n; i++ {
		root.Child(pattern.Type(fmt.Sprintf("v%d", i)))
	}
	return pattern.New(root)
}

// FanRedundancy returns the constraints that make the first x leaves of a
// Fan query redundant (degree 1: each leaf has exactly one image, the
// witness its constraint guarantees).
func FanRedundancy(x int) *ics.Set {
	cs := ics.NewSet()
	for i := 1; i <= x; i++ {
		cs.Add(ics.Child(T(0), pattern.Type(fmt.Sprintf("v%d", i))))
	}
	return cs
}

// RelevantConstraints builds k constraints that mention types occurring in
// q (so the minimizers retrieve and apply them) without changing the
// minimal equivalent query: required-descendant constraints between
// distinct query types, ordered to stay acyclic, none of which can
// discharge a c-edge requirement. Surplus demand beyond the available
// acyclic pairs is filled with constraints targeting fresh types, which
// still cost retrieval but are never applied by augmentation.
//
// The pairs chain (gap 1 first), so on a query with m types the first
// m-1 constraints already imply every later in-query pair: their closure
// saturates. SpreadConstraints is the variant whose closure grows with k.
func RelevantConstraints(q *pattern.Pattern, k int) *ics.Set {
	types := queryTypes(q)
	cs := ics.NewSet()
	// In-query pairs first (i < j keeps the requirement graph acyclic).
	for gap := 1; gap < len(types) && cs.Len() < k; gap++ {
		for i := 0; i+gap < len(types) && cs.Len() < k; i++ {
			cs.Add(ics.Desc(types[i], types[i+gap]))
		}
	}
	for i := 0; cs.Len() < k; i++ {
		cs.Add(ics.Desc(types[i%len(types)], pattern.Type(fmt.Sprintf("x%d", i))))
	}
	return cs
}

// SpreadConstraints builds k required-descendant constraints between
// types of q that never chain — the constraint load of Figure 7(a). The
// non-root types are split in half; every constraint leads from a type
// of the first half to one of the second, so no constraint implies
// another and each of the k adds to the closure. Like
// RelevantConstraints they cannot discharge a c-edge requirement, so
// they leave the minimal equivalent query unchanged. It panics when q
// has fewer than k such pairs.
func SpreadConstraints(q *pattern.Pattern, k int) *ics.Set {
	types := queryTypes(q)[1:]
	h := len(types) / 2
	src, dst := types[:h], types[h:]
	if k > len(src)*len(dst) {
		panic(fmt.Sprintf("genquery: SpreadConstraints wants %d constraints, query has %d pairs", k, len(src)*len(dst)))
	}
	cs := ics.NewSet()
	for i := 0; i < k; i++ {
		s := i % len(src)
		cs.Add(ics.Desc(src[s], dst[(s+i/len(src))%len(dst)]))
	}
	return cs
}

// queryTypes lists the types of q in walk order (the root's first),
// each once.
func queryTypes(q *pattern.Pattern) []pattern.Type {
	var types []pattern.Type
	seen := map[pattern.Type]bool{}
	q.Walk(func(n *pattern.Node) {
		for _, t := range n.Types() {
			if !seen[t] {
				seen[t] = true
				types = append(types, t)
			}
		}
	})
	return types
}

// HalfLocal returns a query in which ACIM can remove 2k nodes but only k
// of them are locally redundant — the Figure 9(b) workload, where CDM as a
// pre-filter removes half of what ACIM removes. The query is
//
//	root* [ local chain of k nodes ]   (required-child constraints)
//	      [ branch of k nodes ]        (duplicated:
//	      [ identical branch   ]        one copy is CIM-redundant)
//
// so size = 3k+1; the requested size is rounded down to the nearest such
// value (minimum 4).
func HalfLocal(size int) (*pattern.Pattern, *ics.Set) {
	k := (size - 1) / 3
	if k < 1 {
		panic("genquery: HalfLocal needs size >= 4")
	}
	root := pattern.NewStar(T(0))
	cs := ics.NewSet()
	// Local chain: c-edges + required-child constraints.
	cur := root
	prev := T(0)
	for i := 0; i < k; i++ {
		ty := pattern.Type(fmt.Sprintf("l%d", i))
		cur = cur.Child(ty)
		cs.Add(ics.Child(prev, ty))
		prev = ty
	}
	// Two identical global branches (d-edge at the top so the duplicate
	// folds regardless of what surrounds it).
	for copyNo := 0; copyNo < 2; copyNo++ {
		cur := root.AddChild(pattern.Descendant, pattern.NewNode("g0"))
		for i := 1; i < k; i++ {
			cur = cur.Child(pattern.Type(fmt.Sprintf("g%d", i)))
		}
	}
	return pattern.New(root), cs
}

// DeepWitness returns a query whose redundant leaves can only be
// discharged by rule (iv) of CDM with a witness deep inside a sibling
// subtree: the root has k distinct-typed d-child leaves w1..wk plus a
// k-node chain of a single repeated type whose co-occurrences cover every
// wi. The information-content machinery collapses the whole chain into one
// propagated argument and resolves each leaf with a hash probe, while a
// direct implementation of the rule must walk the chain per leaf — the
// ablation-cdm benchmark measures the difference. Size is 2k+1.
func DeepWitness(k int) (*pattern.Pattern, *ics.Set) {
	if k < 1 {
		panic("genquery: DeepWitness needs k >= 1")
	}
	const deep = pattern.Type("deep")
	root := pattern.NewStar(T(0))
	for i := 1; i <= k; i++ {
		root.AddChild(pattern.Descendant, pattern.NewNode(pattern.Type(fmt.Sprintf("w%d", i))))
	}
	cur := root
	for i := 1; i <= k; i++ {
		cur = cur.Child(deep)
	}
	cs := ics.NewSet()
	for i := 1; i <= k; i++ {
		cs.Add(ics.Co(deep, pattern.Type(fmt.Sprintf("w%d", i))))
	}
	return pattern.New(root), cs
}

// Irrelevant returns k constraints over types disjoint from any query
// ("y0" onward): stored, hashed, never retrieved. Figure 8(a) grows the
// stored-constraint count to show CDM time does not depend on it.
func Irrelevant(k int) *ics.Set {
	cs := ics.NewSet()
	for i := 0; cs.Len() < k; i++ {
		cs.Add(ics.Desc(pattern.Type(fmt.Sprintf("y%d", 2*i)), pattern.Type(fmt.Sprintf("y%d", 2*i+1))))
	}
	return cs
}

// Random returns a random query of the given size over a bounded type
// alphabet, with random edge kinds and a random output node. Used by
// fuzz-style tests and the CLI generator.
func Random(rng *rand.Rand, size, alphabet int) *pattern.Pattern {
	if size < 1 || alphabet < 1 {
		panic("genquery: Random needs size >= 1 and alphabet >= 1")
	}
	root := pattern.NewNode(T(rng.Intn(alphabet)))
	nodes := []*pattern.Node{root}
	for len(nodes) < size {
		parent := nodes[rng.Intn(len(nodes))]
		kind := pattern.Child
		if rng.Intn(2) == 0 {
			kind = pattern.Descendant
		}
		nodes = append(nodes, parent.AddChild(kind, pattern.NewNode(T(rng.Intn(alphabet)))))
	}
	nodes[rng.Intn(len(nodes))].Star = true
	return pattern.New(root)
}

// RandomConstraints returns up to k random acyclic constraints over the
// alphabet used by Random.
func RandomConstraints(rng *rand.Rand, k, alphabet int) *ics.Set {
	cs := ics.NewSet()
	if alphabet < 2 {
		return cs
	}
	for i := 0; i < k; i++ {
		from := rng.Intn(alphabet - 1)
		to := from + 1 + rng.Intn(alphabet-from-1)
		switch rng.Intn(3) {
		case 0:
			cs.Add(ics.Child(T(from), T(to)))
		case 1:
			cs.Add(ics.Desc(T(from), T(to)))
		default:
			cs.Add(ics.Co(T(from), T(to)))
		}
	}
	return cs
}
