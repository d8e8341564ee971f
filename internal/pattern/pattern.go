// Package pattern defines the tree pattern query (TPQ) data model used
// throughout the library, together with a text syntax (see parse.go), a
// canonical form for isomorphism testing (see canon.go), and the structural
// helpers (traversal, cloning, editing) that the minimization algorithms
// build on. Preorder is the one layout the dense kernels read a pattern
// through — CDM, the chase, CIM, the unsatisfiability check, containment
// mappings and the match engine — so the ordinals, subtree intervals and
// parent links they address are computed in one place.
//
// A tree pattern query is a rooted, unordered tree. Every node carries one
// or more types; every non-root node is connected to its parent by either a
// child edge (direct containment, rendered "/") or a descendant edge
// (transitive containment, rendered "//"). Exactly one node is marked as the
// output node (rendered with a trailing "*"): when the pattern is matched
// against a tree database, the answer set is the set of data nodes the
// output node binds to.
//
// This model follows Section 2.1 and Section 3 of "Minimization of Tree
// Pattern Queries" (Amer-Yahia, Cho, Lakshmanan, Srivastava, SIGMOD 2001).
// Sibling order is not significant. Node types are uninterpreted strings;
// co-occurrence constraints (see package ics) may associate additional types
// with a node, which is why a node carries a set of types rather than a
// single one.
package pattern

import (
	"fmt"
	"sort"
)

// Type is a node type (an XML element name, an LDAP object class, ...).
// Types are uninterpreted: two types are related only if an integrity
// constraint says so.
type Type string

// EdgeKind distinguishes the two kinds of pattern edges. Child is the one
// c-edge kind: every reader, from the printer to the kernels, reads any
// other value as Descendant.
type EdgeKind int8

const (
	// Child is a direct-containment edge, rendered "/". A child edge in a
	// pattern must be matched by a parent-child edge in the database.
	Child EdgeKind = iota
	// Descendant is a transitive-containment edge, rendered "//". A
	// descendant edge must be matched by a proper ancestor-descendant pair
	// in the database.
	Descendant
)

// String returns the textual rendering of the edge kind: "/" for Child,
// "//" for any other kind.
func (k EdgeKind) String() string {
	if k == Child {
		return "/"
	}
	return "//"
}

// Node is a single node of a tree pattern query.
//
// Nodes are linked both downward (Children) and upward (Parent); Edge
// records the kind of the edge connecting the node to its parent and is
// meaningless on the root. The zero value is not useful; create nodes with
// NewNode and attach them with AddChild.
type Node struct {
	// Type is the primary type of the node, assigned when the query is
	// written.
	Type Type

	// Extra holds additional types associated with the node: a query
	// may write them (a{b}), and the full chase adds them when a
	// co-occurrence constraint applies (every node of type A is also of
	// type B). Sorted and duplicate-free; maintained by AddType.
	Extra []Type

	// Star marks the output node. Exactly one node per valid pattern has
	// Star set; see Pattern.Validate.
	Star bool

	// Conds are value-based conditions on the node's attributes (the
	// Section 7 extension): all must hold at a matching data node, and a
	// containment mapping may send this node onto an image only if the
	// image's conditions entail these. Kept sorted by AddCond.
	Conds []Condition

	// Or marks a disjunction node: its Children are alternatives, not
	// conjunctive siblings, and Edge is the edge each alternative takes
	// when the disjunction is distributed away. Or-nodes exist only in the
	// raw trees built by the disjunctive parser — Distribute expands them
	// into a union of conjunctive patterns before anything else sees them,
	// and Validate rejects any that remain, so the minimization and match
	// kernels never encounter one.
	Or bool

	// Edge is the kind of the edge from Parent to this node. Undefined on
	// the root.
	Edge EdgeKind

	// Parent is the parent node, nil on the root.
	Parent *Node

	// Children lists the node's children in insertion order. The order has
	// no semantic meaning (patterns are unordered trees).
	Children []*Node
}

// NewNode returns a fresh node of the given primary type with no parent and
// no children.
func NewNode(t Type) *Node {
	return &Node{Type: t}
}

// NewStar returns a fresh node of the given primary type marked as the
// output node.
func NewStar(t Type) *Node {
	return &Node{Type: t, Star: true}
}

// AddChild attaches child to n with an edge of kind k and returns child, so
// construction code can chain calls. It panics if child already has a
// parent: a node belongs to at most one pattern.
func (n *Node) AddChild(k EdgeKind, child *Node) *Node {
	if child.Parent != nil {
		panic("pattern: AddChild of a node that already has a parent")
	}
	child.Parent = n
	child.Edge = k
	n.Children = append(n.Children, child)
	return child
}

// Child attaches a fresh node of type t as a c-child of n and returns it.
func (n *Node) Child(t Type) *Node { return n.AddChild(Child, NewNode(t)) }

// Desc attaches a fresh node of type t as a d-child of n and returns it.
func (n *Node) Desc(t Type) *Node { return n.AddChild(Descendant, NewNode(t)) }

// Detach removes n from its parent's child list. It is a no-op on a root.
// The subtree below n stays intact, so Detach deletes the whole subtree
// rooted at n from the pattern that contained it.
func (n *Node) Detach() {
	p := n.Parent
	if p == nil {
		return
	}
	for i, c := range p.Children {
		if c == n {
			p.Children = append(p.Children[:i], p.Children[i+1:]...)
			break
		}
	}
	n.Parent = nil
}

// IsLeaf reports whether n has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// HasType reports whether t is among the node's types (primary or extra).
func (n *Node) HasType(t Type) bool {
	if n.Type == t {
		return true
	}
	for _, e := range n.Extra {
		if e == t {
			return true
		}
	}
	return false
}

// AddType associates an additional type with the node. Adding the primary
// type or an already-present extra type is a no-op.
func (n *Node) AddType(t Type) {
	if !n.HasType(t) {
		n.Extra = insertSorted(n.Extra, t)
	}
}

func insertSorted(ts []Type, t Type) []Type {
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= t })
	if i < len(ts) && ts[i] == t {
		return ts
	}
	ts = append(ts, "")
	copy(ts[i+1:], ts[i:])
	ts[i] = t
	return ts
}

// Types returns all types of the node: the primary type followed by the
// extra types in sorted order. The returned slice must not be modified.
func (n *Node) Types() []Type {
	if len(n.Extra) == 0 {
		return []Type{n.Type}
	}
	out := make([]Type, 0, 1+len(n.Extra))
	out = append(out, n.Type)
	out = append(out, n.Extra...)
	return out
}

// TypesSubsetOf reports whether every type of n is a type of m. This is the
// type-compatibility condition of a containment mapping: a pattern node n
// may be mapped onto m only if m carries at least the types n requires.
func (n *Node) TypesSubsetOf(m *Node) bool {
	if !m.HasType(n.Type) {
		return false
	}
	for _, t := range n.Extra {
		if !m.HasType(t) {
			return false
		}
	}
	return true
}

// IsAncestorOf reports whether n is a proper ancestor of m.
func (n *Node) IsAncestorOf(m *Node) bool {
	for a := m.Parent; a != nil; a = a.Parent {
		if a == n {
			return true
		}
	}
	return false
}

// Depth returns the number of edges on the path from the root to n.
func (n *Node) Depth() int {
	d := 0
	for a := n.Parent; a != nil; a = a.Parent {
		d++
	}
	return d
}

// Pattern is a tree pattern query: a rooted tree of Nodes. The zero value
// is an empty pattern; most code builds patterns via Parse or NewNode +
// AddChild and wraps the root with New.
type Pattern struct {
	Root *Node
}

// New returns a Pattern rooted at root.
func New(root *Node) *Pattern { return &Pattern{Root: root} }

// Size returns the number of nodes in the pattern.
func (p *Pattern) Size() int {
	if p == nil || p.Root == nil {
		return 0
	}
	n := 0
	p.Walk(func(*Node) { n++ })
	return n
}

// Walk visits every node of the pattern in preorder (parent before
// children).
func (p *Pattern) Walk(f func(*Node)) {
	if p == nil || p.Root == nil {
		return
	}
	var rec func(*Node)
	rec = func(n *Node) {
		f(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(p.Root)
}

// Nodes returns all nodes in preorder.
func (p *Pattern) Nodes() []*Node {
	out := make([]*Node, 0, 16)
	p.Walk(func(n *Node) { out = append(out, n) })
	return out
}

// Leaves returns all leaf nodes in preorder.
func (p *Pattern) Leaves() []*Node {
	var out []*Node
	p.Walk(func(n *Node) {
		if n.IsLeaf() {
			out = append(out, n)
		}
	})
	return out
}

// OutputNode returns the node marked "*", or nil if there is none.
func (p *Pattern) OutputNode() *Node {
	var star *Node
	p.Walk(func(n *Node) {
		if n.Star && star == nil {
			star = n
		}
	})
	return star
}

// TypeSet returns the set of the query's types: the primary and extra
// types of its nodes.
func (p *Pattern) TypeSet() map[Type]bool {
	set := make(map[Type]bool)
	p.Walk(func(n *Node) {
		set[n.Type] = true
		for _, t := range n.Extra {
			set[t] = true
		}
	})
	return set
}

// Clone returns a deep copy of the pattern. The copy shares no nodes with
// the original.
func (p *Pattern) Clone() *Pattern {
	if p == nil || p.Root == nil {
		return &Pattern{}
	}
	return &Pattern{Root: cloneSubtree(p.Root)}
}

// CloneMap returns a deep copy together with the mapping from original
// nodes to their copies, which callers use to carry node-level bookkeeping
// (candidate sets, protected sets) across the copy.
func (p *Pattern) CloneMap() (*Pattern, map[*Node]*Node) {
	q := p.Clone()
	m := make(map[*Node]*Node)
	var rec func(n, c *Node)
	rec = func(n, c *Node) {
		m[n] = c
		for i, ch := range n.Children {
			rec(ch, c.Children[i])
		}
	}
	if q.Root != nil {
		rec(p.Root, q.Root)
	}
	return q, m
}

func countNodes(n *Node) int {
	c := 1
	for _, ch := range n.Children {
		c += countNodes(ch)
	}
	return c
}

// Validate checks the structural invariants of a well-formed query:
// non-empty, exactly one output node, consistent parent/child links, no
// node reachable twice, no empty type names. It returns nil if the pattern
// is valid.
func (p *Pattern) Validate() error {
	if p == nil || p.Root == nil {
		return fmt.Errorf("pattern: empty pattern")
	}
	if p.Root.Parent != nil {
		return fmt.Errorf("pattern: root has a parent")
	}
	stars := 0
	seen := make(map[*Node]bool)
	var rec func(n *Node) error
	rec = func(n *Node) error {
		if seen[n] {
			return fmt.Errorf("pattern: node %q reachable twice (not a tree)", n.Type)
		}
		seen[n] = true
		if n.Or {
			return fmt.Errorf("pattern: or-node in a conjunctive pattern (distribute disjunctions first)")
		}
		if n.Type == "" {
			return fmt.Errorf("pattern: node with empty type")
		}
		if n.Star {
			stars++
		}
		for _, c := range n.Children {
			if c.Parent != n {
				return fmt.Errorf("pattern: node %q: child %q has wrong parent link", n.Type, c.Type)
			}
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(p.Root); err != nil {
		return err
	}
	if stars != 1 {
		return fmt.Errorf("pattern: %d output nodes, want exactly 1", stars)
	}
	return nil
}

// Preorder is a pattern laid out for the dense kernels: its nodes in
// preorder, so that every subtree is an interval of ordinals. Nodes[i] is
// the node of ordinal i, End[i] the last ordinal of its subtree,
// Parent[i] its parent's ordinal (-1 at the root), Up[i] its parent
// through a c-edge (-1 at the root and below a d-edge) and Kids[i] its
// number of children: Up, End and Kids make the layout a
// semijoin.Target. The proper descendants of i are (i, End[i]], and its
// children are i+1, End[i+1]+1, … up to End[i]. A layout is a snapshot:
// it goes stale if the pattern is edited.
type Preorder struct {
	Nodes                 []*Node
	End, Parent, Up, Kids []int32
}

// Fill lays p out in l, reusing l's slices: a refill from a pattern no
// larger than the biggest l has held allocates nothing.
func (l *Preorder) Fill(p *Pattern) {
	n := 0
	if p != nil && p.Root != nil {
		n = countNodes(p.Root)
	}
	l.Resize(n)
	if n > 0 {
		l.add(p.Root, -1, 0)
	}
}

// Resize sets l's length to n ordinals, reusing its slices, for a writer
// that fills every array itself; what the arrays hold before is stale.
func (l *Preorder) Resize(n int) {
	if cap(l.Nodes) < n {
		// Grow geometrically, as append would; the four int arrays share
		// one allocation.
		c := max(n, 2*cap(l.Nodes))
		l.Nodes = make([]*Node, 0, c)
		ints := make([]int32, 4*c)
		l.End, l.Parent, l.Up, l.Kids = ints[:0:c], ints[c:c:2*c], ints[2*c:2*c:3*c], ints[3*c:3*c:4*c]
	}
	l.Nodes, l.End, l.Parent, l.Up, l.Kids = l.Nodes[:n], l.End[:n], l.Parent[:n], l.Up[:n], l.Kids[:n]
}

// add lays out n's subtree from ordinal i and returns the ordinal after it.
func (l *Preorder) add(n *Node, parent, i int32) int32 {
	l.Nodes[i], l.Parent[i], l.Up[i], l.Kids[i] = n, parent, -1, int32(len(n.Children))
	if parent >= 0 && n.Edge == Child {
		l.Up[i] = parent
	}
	next := i + 1
	for _, c := range n.Children {
		next = l.add(c, i, next)
	}
	l.End[i] = next - 1
	return next
}
