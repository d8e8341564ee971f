package pattern

import (
	"strings"
	"testing"
)

// build constructs the query of Figure 2(a) of the paper by hand:
// Articles/Article*[/Title, //Paragraph, /Section//Paragraph].
func fig2a() *Pattern {
	root := NewNode("Articles")
	art := root.Child("Article")
	art.Star = true
	art.Child("Title")
	art.Desc("Paragraph")
	art.Child("Section").Desc("Paragraph")
	return New(root)
}

func TestSize(t *testing.T) {
	if got := fig2a().Size(); got != 6 {
		t.Errorf("Size = %d, want 6", got)
	}
	var empty *Pattern
	if got := empty.Size(); got != 0 {
		t.Errorf("nil pattern Size = %d, want 0", got)
	}
	if got := (&Pattern{}).Size(); got != 0 {
		t.Errorf("empty pattern Size = %d, want 0", got)
	}
}

func TestWalkOrders(t *testing.T) {
	p := fig2a()
	var pre []Type
	p.Walk(func(n *Node) { pre = append(pre, n.Type) })
	want := []Type{"Articles", "Article", "Title", "Paragraph", "Section", "Paragraph"}
	if len(pre) != len(want) {
		t.Fatalf("preorder %v, want %v", pre, want)
	}
	for i := range want {
		if pre[i] != want[i] {
			t.Fatalf("preorder %v, want %v", pre, want)
		}
	}
}

func TestOutputNode(t *testing.T) {
	p := fig2a()
	star := p.OutputNode()
	if star == nil || star.Type != "Article" {
		t.Fatalf("OutputNode = %v, want Article node", star)
	}
}

func TestDetach(t *testing.T) {
	p := fig2a()
	var title *Node
	p.Walk(func(n *Node) {
		if n.Type == "Title" {
			title = n
		}
	})
	title.Detach()
	if p.Size() != 5 {
		t.Errorf("after Detach Size = %d, want 5", p.Size())
	}
	if title.Parent != nil {
		t.Error("detached node still has a parent")
	}
	// Detaching the root is a no-op.
	p.Root.Detach()
	if p.Size() != 5 {
		t.Error("Detach on root changed the pattern")
	}
}

func TestDetachSubtree(t *testing.T) {
	p := fig2a()
	var section *Node
	p.Walk(func(n *Node) {
		if n.Type == "Section" {
			section = n
		}
	})
	section.Detach()
	if p.Size() != 4 {
		t.Errorf("after subtree Detach Size = %d, want 4", p.Size())
	}
}

func TestAddChildPanicsOnReattach(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddChild of an attached node did not panic")
		}
	}()
	p := fig2a()
	NewNode("x").AddChild(Child, p.Root.Children[0])
}

func TestTypes(t *testing.T) {
	n := NewNode("Employee")
	if !n.HasType("Employee") || n.HasType("Person") {
		t.Fatal("HasType on fresh node wrong")
	}
	n.AddType("Person")
	n.AddType("Agent")
	n.AddType("Person") // duplicate: no-op
	if got := n.Types(); len(got) != 3 || got[0] != "Employee" {
		t.Fatalf("Types = %v", got)
	}
	if !n.HasType("Person") || !n.HasType("Agent") {
		t.Error("added types not reported by HasType")
	}
	m := NewNode("Employee")
	m.AddType("Person")
	if m.TypesSubsetOf(n) != true {
		t.Error("TypesSubsetOf: {Employee,Person} should be subset of {Employee,Person,Agent}")
	}
	if n.TypesSubsetOf(m) != false {
		t.Error("TypesSubsetOf: superset reported as subset")
	}
}

func TestAddTypeSorted(t *testing.T) {
	n := NewNode("a")
	for _, ty := range []Type{"z", "m", "b", "m"} {
		n.AddType(ty)
	}
	want := []Type{"b", "m", "z"}
	for i, ty := range n.Extra {
		if ty != want[i] {
			t.Fatalf("Extra = %v, want %v", n.Extra, want)
		}
	}
}

func TestAncestry(t *testing.T) {
	p := fig2a()
	var para2 *Node // the Paragraph under Section
	p.Walk(func(n *Node) {
		if n.Type == "Paragraph" && n.Parent.Type == "Section" {
			para2 = n
		}
	})
	if para2.Depth() != 3 {
		t.Errorf("Depth = %d, want 3", para2.Depth())
	}
	if !p.Root.IsAncestorOf(para2) || para2.IsAncestorOf(p.Root) {
		t.Error("IsAncestorOf wrong")
	}
	if p.Root.IsAncestorOf(p.Root) {
		t.Error("node is its own ancestor")
	}
}

// TestPreorder pins the layout of Figure 2(a): preorder ordinals,
// subtree ends and parents, children found by hopping subtree ends, and a
// refill from a pattern of the same size that allocates nothing, which the
// pooled scratch of the minimization kernels relies on.
func TestPreorder(t *testing.T) {
	p := fig2a()
	var l Preorder
	l.Fill(p)
	// Articles/Article*[/Title, //Paragraph, /Section//Paragraph]
	types := []Type{"Articles", "Article", "Title", "Paragraph", "Section", "Paragraph"}
	end := []int32{5, 5, 2, 3, 5, 5}
	parent := []int32{-1, 0, 1, 1, 1, 4}
	up := []int32{-1, 0, 1, -1, 1, -1} // the c-edge parents: d-edges give -1
	nkids := []int32{1, 3, 0, 0, 1, 0}
	if len(l.Nodes) != len(types) || len(l.End) != len(end) || len(l.Parent) != len(parent) || len(l.Up) != len(up) || len(l.Kids) != len(nkids) {
		t.Fatalf("layout of %d/%d/%d/%d/%d entries, want %d", len(l.Nodes), len(l.End), len(l.Parent), len(l.Up), len(l.Kids), len(types))
	}
	for i, n := range l.Nodes {
		if n.Type != types[i] || l.End[i] != end[i] || l.Parent[i] != parent[i] || l.Up[i] != up[i] || l.Kids[i] != nkids[i] {
			t.Errorf("ordinal %d: %s end %d parent %d up %d kids %d, want %s end %d parent %d up %d kids %d",
				i, n.Type, l.End[i], l.Parent[i], l.Up[i], l.Kids[i], types[i], end[i], parent[i], up[i], nkids[i])
		}
		if pi := l.Parent[i]; pi >= 0 && n.Parent != l.Nodes[pi] {
			t.Errorf("ordinal %d: Parent %d is not its parent node", i, pi)
		}
	}
	var kids []int32
	for c := int32(2); c <= l.End[1]; c = l.End[c] + 1 {
		kids = append(kids, c)
	}
	if len(kids) != 3 || kids[0] != 2 || kids[1] != 3 || kids[2] != 4 {
		t.Errorf("children of Article %v, want [2 3 4]", kids)
	}

	q := fig2a()
	if allocs := testing.AllocsPerRun(100, func() { l.Fill(q) }); allocs != 0 {
		t.Errorf("refilling from a pattern of the same size allocates %v times", allocs)
	}
	if l.Nodes[0] != q.Root {
		t.Error("refill kept the old pattern's nodes")
	}
	l.Fill(nil)
	if len(l.Nodes) != 0 || len(l.End) != 0 || len(l.Parent) != 0 || len(l.Up) != 0 || len(l.Kids) != 0 {
		t.Error("nil pattern left a non-empty layout")
	}
}

func TestClone(t *testing.T) {
	p := fig2a()
	p.Root.Children[0].AddType("Doc")
	q, m := p.CloneMap()
	if q.Size() != p.Size() {
		t.Fatalf("clone size %d != %d", q.Size(), p.Size())
	}
	if !Isomorphic(p, q) {
		t.Error("clone not isomorphic to original")
	}
	// No shared nodes.
	qNodes := map[*Node]bool{}
	q.Walk(func(n *Node) { qNodes[n] = true })
	p.Walk(func(n *Node) {
		if qNodes[n] {
			t.Fatal("clone shares a node with the original")
		}
		if m[n] == nil || !qNodes[m[n]] {
			t.Fatal("CloneMap missing a mapping")
		}
	})
	// Mutating the clone leaves the original intact.
	q.Root.Children[0].Detach()
	if p.Size() != 6 {
		t.Error("mutating clone changed original")
	}
}

func TestValidate(t *testing.T) {
	if err := fig2a().Validate(); err != nil {
		t.Errorf("valid pattern rejected: %v", err)
	}
	cases := []struct {
		name string
		make func() *Pattern
		want string
	}{
		{"empty", func() *Pattern { return &Pattern{} }, "empty"},
		{"no star", func() *Pattern { return New(NewNode("a")) }, "output nodes"},
		{"two stars", func() *Pattern {
			r := NewStar("a")
			r.AddChild(Child, NewStar("b"))
			return New(r)
		}, "output nodes"},
		{"empty type", func() *Pattern {
			r := NewStar("a")
			r.Child("")
			return New(r)
		}, "empty type"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.make().Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Validate = %v, want error containing %q", err, c.want)
			}
		})
	}
}

func TestEdgeKindString(t *testing.T) {
	if Child.String() != "/" || Descendant.String() != "//" {
		t.Error("EdgeKind.String wrong")
	}
	if EdgeKind(5).String() != "//" {
		t.Error("a kind other than Child must render as a descendant edge")
	}
}

func TestNodePredicates(t *testing.T) {
	p := fig2a()
	if p.Root.IsLeaf() {
		t.Error("root predicates wrong")
	}
	var title *Node
	p.Walk(func(n *Node) {
		if n.Type == "Title" {
			title = n
		}
	})
	if !title.IsLeaf() {
		t.Error("leaf predicates wrong")
	}
}

func TestNodesAndLeaves(t *testing.T) {
	p := fig2a()
	if got := p.Nodes(); len(got) != 6 || got[0] != p.Root {
		t.Errorf("Nodes = %d entries", len(got))
	}
	leaves := p.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("Leaves = %d, want 3", len(leaves))
	}
	for _, l := range leaves {
		if !l.IsLeaf() {
			t.Error("non-leaf in Leaves")
		}
	}
}

func TestTypeSet(t *testing.T) {
	p := fig2a()
	p.Root.AddType("Collection")
	set := p.TypeSet()
	for _, ty := range []Type{"Articles", "Article", "Title", "Paragraph", "Section", "Collection"} {
		if !set[ty] {
			t.Errorf("TypeSet missing %q", ty)
		}
	}
	if len(set) != 6 {
		t.Errorf("TypeSet size = %d", len(set))
	}
}

func TestCondsEntailMethod(t *testing.T) {
	strong := NewNode("a")
	strong.AddCond(Condition{Attr: "p", Op: OpLt, Value: 50})
	weak := NewNode("a")
	weak.AddCond(Condition{Attr: "p", Op: OpLt, Value: 100})
	if !strong.CondsEntail(weak) {
		t.Error("p<50 should entail p<100")
	}
	if weak.CondsEntail(strong) {
		t.Error("p<100 must not entail p<50")
	}
	free := NewNode("a")
	if !strong.CondsEntail(free) || free.CondsEntail(strong) {
		t.Error("condition-free entailment wrong")
	}
}
