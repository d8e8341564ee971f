// Package data provides the tree-structured database substrate that tree
// pattern queries are evaluated against: a forest of unordered trees whose
// nodes carry one or more types, as in XML documents (element trees) and
// LDAP-style directories (entries with multiple object classes). See
// Section 2.1 of the paper.
//
// The package also builds canonical databases from patterns (the tool used
// to prove — and here, to test — the homomorphism theorem), checks and
// repairs integrity-constraint satisfaction, and generates random forests
// for the experimental harness.
package data

import (
	"fmt"
	"sort"
	"strings"

	"tpq/internal/pattern"
)

// Node is a node of a data tree. Unlike pattern nodes, data nodes have no
// edge kinds (all edges are parent-child) and no output marker.
type Node struct {
	// Types holds the node's types. Most XML-style nodes have exactly one;
	// co-occurrence constraints (LDAP object classes, type hierarchies) give
	// nodes several. Sorted, duplicate-free.
	Types []pattern.Type

	// Attrs holds named numeric attribute values, matched against the
	// value-based conditions of pattern nodes (the Section 7 extension).
	// Nil when the node carries no attributes.
	Attrs map[string]float64

	Parent   *Node
	Children []*Node

	// ID is the node's preorder position in its forest, assigned by
	// Forest.Reindex. Valid only after indexing.
	ID int
	// in/out are preorder intervals for O(1) ancestor tests.
	in, out int
}

// NewNode returns a data node with the given types.
func NewNode(types ...pattern.Type) *Node {
	n := &Node{}
	for _, t := range types {
		n.AddType(t)
	}
	return n
}

// AddType adds t to the node's type set (no-op if present).
func (n *Node) AddType(t pattern.Type) {
	i := sort.Search(len(n.Types), func(i int) bool { return n.Types[i] >= t })
	if i < len(n.Types) && n.Types[i] == t {
		return
	}
	n.Types = append(n.Types, "")
	copy(n.Types[i+1:], n.Types[i:])
	n.Types[i] = t
}

// HasType reports whether t is among the node's types.
func (n *Node) HasType(t pattern.Type) bool {
	i := sort.Search(len(n.Types), func(i int) bool { return n.Types[i] >= t })
	return i < len(n.Types) && n.Types[i] == t
}

// SetAttr sets a numeric attribute on the node and returns the node for
// chaining.
func (n *Node) SetAttr(name string, v float64) *Node {
	if n.Attrs == nil {
		n.Attrs = make(map[string]float64)
	}
	n.Attrs[name] = v
	return n
}

// AddChild attaches child to n and returns child.
func (n *Node) AddChild(child *Node) *Node {
	if child.Parent != nil {
		panic("data: AddChild of a node that already has a parent")
	}
	child.Parent = n
	n.Children = append(n.Children, child)
	return child
}

// Child attaches a fresh child with the given types and returns it.
func (n *Node) Child(types ...pattern.Type) *Node {
	return n.AddChild(NewNode(types...))
}

// IsAncestorOf reports whether n is a proper ancestor of m. Valid only
// after the owning forest has been indexed (Forest.Reindex). Interval
// ranges of distinct trees are disjoint, so nodes from different trees are
// never related.
func (n *Node) IsAncestorOf(m *Node) bool {
	return n.in < m.in && m.out <= n.out
}

// SubtreeEnd returns the largest preorder ID in n's subtree: IDs are
// assigned in preorder, so subtree(n) occupies exactly the contiguous ID
// interval [n.ID, n.SubtreeEnd()]. Valid only after Forest.Reindex.
func (n *Node) SubtreeEnd() int {
	return n.ID + (n.out - n.in)
}

// Forest is a tree-structured database: an ordered collection of data
// trees. Order is for reproducibility only; the data model is unordered.
type Forest struct {
	Roots []*Node

	nodes []*Node // preorder over all trees; set by Reindex
}

// NewForest returns a forest over the given roots, indexed and ready for
// matching.
func NewForest(roots ...*Node) *Forest {
	f := &Forest{Roots: roots}
	f.Reindex()
	return f
}

// Reindex assigns IDs and preorder intervals. Call it after structurally
// modifying the forest and before matching.
func (f *Forest) Reindex() {
	f.nodes = f.nodes[:0]
	t := 0
	var rec func(*Node)
	rec = func(n *Node) {
		t++
		n.in = t
		n.ID = len(f.nodes)
		f.nodes = append(f.nodes, n)
		for _, c := range n.Children {
			rec(c)
		}
		n.out = t
	}
	for _, r := range f.Roots {
		rec(r)
	}
}

// Nodes returns all nodes of the forest in preorder. The slice is owned by
// the forest; callers must not modify it.
func (f *Forest) Nodes() []*Node {
	return f.nodes
}

// Size returns the number of nodes in the forest.
func (f *Forest) Size() int { return len(f.nodes) }

// String renders the forest in an indented one-node-per-line format, with
// each node's types comma-joined. Useful in test failure messages.
func (f *Forest) String() string {
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		for i, t := range n.Types {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(string(t))
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	for _, r := range f.Roots {
		rec(r, 0)
	}
	return b.String()
}

// Canonical builds a canonical database from a pattern: the pattern frozen
// as data. Each c-edge becomes a data edge; each d-edge becomes a chain
// with extraHops interior nodes of a fresh type that occurs nowhere in any
// pattern ("⊥0", "⊥1", ...). Extra types on pattern nodes are
// preserved. The returned mapping relates pattern nodes to their data
// images.
//
// With extraHops = 1 the canonical database is the classical completeness
// witness: if some pattern P embeds into Canonical(Q, 1) at Q's output
// node, a containment mapping P -> Q exists, because no pattern node can
// land on a fresh-typed interior node.
func Canonical(p *pattern.Pattern, extraHops int) (*Forest, map[*pattern.Node]*Node) {
	m := make(map[*pattern.Node]*Node)
	fresh := 0
	var rec func(pn *pattern.Node) *Node
	rec = func(pn *pattern.Node) *Node {
		d := NewNode(pn.Types()...)
		if attrs, ok := pattern.SampleConds(pn.Conds); ok {
			for a, v := range attrs {
				d.SetAttr(a, v)
			}
		}
		m[pn] = d
		for _, c := range pn.Children {
			cd := rec(c)
			attach := d
			if c.Edge != pattern.Child {
				for h := 0; h < extraHops; h++ {
					attach = attach.Child(pattern.Type(fmt.Sprintf("⊥%d", fresh)))
					fresh++
				}
			}
			attach.AddChild(cd)
		}
		return d
	}
	if p == nil || p.Root == nil {
		return NewForest(), m
	}
	root := rec(p.Root)
	return NewForest(root), m
}
