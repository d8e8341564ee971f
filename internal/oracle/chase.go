package oracle

import (
	"slices"

	"tpq/internal/chase"
	"tpq/internal/ics"
	"tpq/internal/pattern"
)

// Witnesses marks what Augment added to a pattern: the witness nodes
// (the paper's temporary nodes) and, per node, the types it associated
// with the node, a witness's co-occurrence types included. The pattern
// itself carries no mark; the reference kernels read these marks where
// the production kernels read the layout the chase plan writes.
type Witnesses struct {
	Nodes map[*pattern.Node]bool
	Types map[*pattern.Node][]pattern.Type
}

// Augment applies the paper's restricted chase (§5.2) to p in place and
// returns the marks of what it added. It computes everything per call —
// the closed set if cs is not closed, the wanted witness types, and the
// targets of every node and witness — where chase.Plan compiles the
// constraint-set part once and specializes it per query type set into
// witness templates; the two must produce the same augmented query.
//
// A fresh witness is chased too: it receives its own co-occurrence types
// and required children, recursively, because a query node may have to
// map onto it. Recursion follows required edges only on acyclic-required
// sets, so witness chains are no longer than the number of mentioned
// types; on a cyclic set witnesses stay one level deep.
func Augment(p *pattern.Pattern, cs *ics.Set) *Witnesses {
	w := &Witnesses{Nodes: make(map[*pattern.Node]bool), Types: make(map[*pattern.Node][]pattern.Type)}
	w.Augment(p, cs)
	return w
}

// Augment chases p again, whose earlier witnesses w marks, recording
// what it adds in w, and returns the number of nodes added. The query
// types are those of p's other nodes without the types w marks, so
// re-augmenting an augmented query adds nothing.
func (w *Witnesses) Augment(p *pattern.Pattern, cs *ics.Set) int {
	if p == nil || p.Root == nil || cs == nil {
		return 0
	}
	if !cs.IsClosed() {
		cs = cs.Closure()
	}
	c := &chaser{w: w, cs: cs, query: make(map[pattern.Type]bool), deep: cs.AcyclicRequired()}
	p.Walk(func(n *pattern.Node) {
		for _, t := range n.Types() {
			if !w.Nodes[n] && !w.added(n, t) {
				c.query[t] = true
			}
		}
	})
	c.wanted = chase.WantedWitnessTypes(cs, c.query)
	added := 0
	for _, n := range p.Nodes() {
		if !w.Nodes[n] {
			added += c.chase(n)
		}
	}
	return added
}

// chaser is one Augment pass: the closed set, the query's types and the
// wanted witness types.
type chaser struct {
	w             *Witnesses
	cs            *ics.Set
	query, wanted map[pattern.Type]bool
	deep          bool
}

// chase gives n its co-occurrence types among the query's — first, so
// the witness targets see the full type set; a required type of a mapped
// node is always a query type — then a witness child per target it
// lacks, chased in turn when chains are grown. It returns the number of
// nodes added.
func (c *chaser) chase(n *pattern.Node) int {
	for _, t := range n.Types() {
		for _, b := range c.cs.CoTargets(t) {
			if c.query[b] && !n.HasType(b) {
				n.AddType(b)
				c.w.Types[n] = append(c.w.Types[n], b)
			}
		}
	}
	childT, descT := chase.WitnessTargets(c.cs, n.Types(), c.wanted, c.deep)
	added := 0
	for i, b := range append(childT, descT...) {
		edge := pattern.Child
		if i >= len(childT) {
			edge = pattern.Descendant
		}
		if slices.ContainsFunc(n.Children, func(x *pattern.Node) bool { return c.w.Nodes[x] && x.Type == b && x.Edge == edge }) {
			continue // witnessed by an earlier pass
		}
		x := n.AddChild(edge, pattern.NewNode(b))
		c.w.Nodes[x] = true
		added++
		if c.deep {
			added += c.chase(x)
		}
	}
	return added
}

// witness reports whether w marks n a witness; w may be nil.
func (w *Witnesses) witness(n *pattern.Node) bool { return w != nil && w.Nodes[n] }

// added reports whether w marks t as added to n; w may be nil.
func (w *Witnesses) added(n *pattern.Node, t pattern.Type) bool {
	return w != nil && slices.Contains(w.Types[n], t)
}

// strip removes every witness, with its subtree, and every marked type
// from p, and forgets the marks.
func (w *Witnesses) strip() {
	for n := range w.Nodes {
		n.Detach()
	}
	for n, ts := range w.Types {
		n.Extra = slices.DeleteFunc(n.Extra, func(t pattern.Type) bool { return slices.Contains(ts, t) })
	}
	clear(w.Nodes)
	clear(w.Types)
}
