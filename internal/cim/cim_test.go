package cim

import (
	"math/rand"
	"testing"

	"tpq/internal/containment"
	"tpq/internal/pattern"
)

func mp(src string) *pattern.Pattern { return pattern.MustParse(src) }

func TestMinimizeFigure2h(t *testing.T) {
	// Figure 2(h) -> 2(i): the //Dept//DBProject branch folds onto the
	// /Dept/Researcher//DBProject branch.
	h := mp("OrgUnit*[/Dept/Researcher//DBProject, //Dept//DBProject]")
	i := mp("OrgUnit*/Dept/Researcher//DBProject")
	got := Minimize(h)
	if !pattern.Isomorphic(got, i) {
		t.Errorf("Minimize(fig2h) = %s, want %s", got, i)
	}
	// With the star on the right-branch Dept instead, nothing can be
	// removed (Section 3.1).
	h2 := mp("OrgUnit[/Dept/Researcher//DBProject, //Dept*//DBProject]")
	if got := Minimize(h2); got.Size() != h2.Size() {
		t.Errorf("starred variant shrank from %d to %d nodes: %s", h2.Size(), got.Size(), got)
	}
}

func TestMinimizeBasics(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a*", "a*"},
		{"a*[/b, /b]", "a*/b"},
		{"a*[//b, //b]", "a*//b"},
		{"a*[/b, //b]", "a*/b"},    // /b implies //b
		{"a*[/b/c, /b]", "a*/b/c"}, // bare /b subsumed by /b/c
		{"a*[//b//c, //c]", "a*//b//c"},
		{"a*[/b, /c]", "a*[/b, /c]"}, // nothing redundant
		{"a*//a", "a*//a"},           // self-similar but not reducible
		{"a[/b*, /b]", "a[/b*, /b]"}, // hmm: non-star b can map onto b*
		{"a*[/b/c, /b/d, /b[/c, /d]]", "a*/b[/c, /d]"},
		// The dual of the paper's remark: the subsumed branch may be first.
		{"a*[/b, /b/c]", "a*/b/c"},
		// Deep duplicate chains.
		{"a*[//b//c//d, //b//c//d]", "a*//b//c//d"},
	}
	for _, c := range cases {
		t.Run(c.in, func(t *testing.T) {
			in := mp(c.in)
			got := Minimize(in)
			var want *pattern.Pattern
			if c.want == c.in {
				want = in
			} else {
				want = mp(c.want)
			}
			if c.in == "a[/b*, /b]" {
				// Special case spelled out: the plain b maps onto b*, so it
				// is redundant; minimal is a/b*.
				want = mp("a/b*")
			}
			if !pattern.Isomorphic(got, want) {
				t.Errorf("Minimize(%s) = %s, want %s", c.in, got, want)
			}
			if !containment.Equivalent(got, in) {
				t.Errorf("Minimize(%s) = %s is not equivalent to input", c.in, got)
			}
		})
	}
}

func TestMinimizeLeavesInputIntact(t *testing.T) {
	in := mp("a*[/b, /b]")
	_ = Minimize(in)
	if in.Size() != 3 {
		t.Error("Minimize mutated its input")
	}
}

func TestRedundantLeafAgreesWithEquivalence(t *testing.T) {
	// Theorem 4.2 cross-check: the images-table test must agree with the
	// definition "Q - l is equivalent to Q" decided by containment
	// mappings.
	rng := rand.New(rand.NewSource(3))
	types := []pattern.Type{"a", "b", "c"}
	checked, redundant := 0, 0
	for i := 0; i < 250; i++ {
		q := randomQuery(rng, 2+rng.Intn(6), types)
		for _, l := range q.Leaves() {
			if l.Star {
				continue
			}
			got := RedundantLeaf(q, l)
			// Independent oracle: delete l from a clone and compare.
			clone, m := q.CloneMap()
			m[l].Detach()
			want := containment.Equivalent(clone, q)
			if got != want {
				t.Fatalf("iter %d: RedundantLeaf(%s, leaf %s@%d) = %v, oracle %v",
					i, q, l.Type, l.Depth(), got, want)
			}
			checked++
			if got {
				redundant++
			}
		}
	}
	if checked == 0 || redundant == 0 || redundant == checked {
		t.Fatalf("degenerate distribution: %d/%d redundant", redundant, checked)
	}
}

func TestMinimalHasNoRedundantLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	types := []pattern.Type{"a", "b", "c"}
	for i := 0; i < 200; i++ {
		q := randomQuery(rng, 1+rng.Intn(8), types)
		min := Minimize(q)
		if !containment.Equivalent(min, q) {
			t.Fatalf("iter %d: Minimize(%s) = %s not equivalent", i, q, min)
		}
		for _, l := range min.Leaves() {
			if l.Star {
				continue
			}
			clone, m := min.CloneMap()
			m[l].Detach()
			if containment.Equivalent(clone, min) {
				t.Fatalf("iter %d: output %s still has redundant leaf %s", i, min, l.Type)
			}
		}
		// Fixpoint.
		again := Minimize(min)
		if !pattern.Isomorphic(again, min) {
			t.Fatalf("iter %d: Minimize not a fixpoint: %s then %s", i, min, again)
		}
	}
}

func TestMEOOrderIndependence(t *testing.T) {
	// Lemma 4.3 / Theorem 4.1: any maximal elimination ordering yields the
	// same minimal query up to isomorphism.
	rng := rand.New(rand.NewSource(9))
	types := []pattern.Type{"a", "b"}
	for i := 0; i < 120; i++ {
		q := randomQuery(rng, 2+rng.Intn(8), types)
		ref := Minimize(q)
		for trial := 0; trial < 4; trial++ {
			clone, m := q.CloneMap()
			order := make(map[*pattern.Node]int)
			perm := rng.Perm(q.Size())
			j := 0
			q.Walk(func(n *pattern.Node) {
				order[m[n]] = perm[j]
				j++
			})
			MinimizeInPlace(clone, Options{Order: order})
			if !pattern.Isomorphic(clone, ref) {
				t.Fatalf("iter %d: different MEOs disagree: %s vs %s (input %s)",
					i, clone, ref, q)
			}
		}
	}
}

func TestStatsCounts(t *testing.T) {
	q := mp("a*[/b, /b, /b]")
	clone := q.Clone()
	st := MinimizeInPlace(clone, Options{})
	if st.Removed != 2 {
		t.Errorf("Removed = %d, want 2", st.Removed)
	}
	if st.Tests < 2 {
		t.Errorf("Tests = %d, want >= 2", st.Tests)
	}
	if clone.Size() != 2 {
		t.Errorf("result size = %d, want 2", clone.Size())
	}
}

func TestStarNeverRemoved(t *testing.T) {
	q := mp("a[/b*, /b/c]")
	got := Minimize(q)
	if got.OutputNode() == nil {
		t.Fatal("output node removed")
	}
}

// Temporary-node behaviour is exercised through package acim; here we check
// the primitives directly.
func TestTempNodesAsImages(t *testing.T) {
	// a*[//b] with a temporary //b witness under a: the permanent b leaf
	// must be found redundant (it can map onto the temporary witness).
	q := mp("a*//b")
	tmp := pattern.NewNode("b")
	tmp.Temp = true
	q.Root.AddChild(pattern.Descendant, tmp)
	var b *pattern.Node
	for _, c := range q.Root.Children {
		if !c.Temp {
			b = c
		}
	}
	if !RedundantLeaf(q, b) {
		t.Error("permanent leaf not redundant despite temporary witness")
	}
	// The temporary node itself is never a candidate.
	clone := q.Clone()
	st := MinimizeInPlace(clone, Options{})
	if st.Removed != 1 {
		t.Errorf("Removed = %d, want 1 (the permanent b only)", st.Removed)
	}
	left := 0
	clone.Walk(func(n *pattern.Node) {
		if n.Temp {
			left++
		}
	})
	if left != 1 {
		t.Errorf("temporary nodes left = %d, want 1", left)
	}
}

func TestTempChildrenAreNotRequirements(t *testing.T) {
	// A leaf whose only children are temporary witnesses can map onto a
	// childless image: temporaries do not constrain the mapping.
	q := mp("a*[//b, //b]")
	b1 := q.Root.Children[0]
	tmp := pattern.NewNode("c")
	tmp.Temp = true
	b1.AddChild(pattern.Child, tmp)
	if !effectiveLeaf(b1) {
		t.Fatal("node with only temp children should be an effective leaf")
	}
	if !RedundantLeaf(q, b1) {
		t.Error("effective leaf with temp children not redundant")
	}
}

func randomQuery(rng *rand.Rand, size int, types []pattern.Type) *pattern.Pattern {
	root := pattern.NewNode(types[rng.Intn(len(types))])
	nodes := []*pattern.Node{root}
	for len(nodes) < size {
		parent := nodes[rng.Intn(len(nodes))]
		kind := pattern.Child
		if rng.Intn(2) == 0 {
			kind = pattern.Descendant
		}
		nodes = append(nodes, parent.AddChild(kind, pattern.NewNode(types[rng.Intn(len(types))])))
	}
	nodes[rng.Intn(len(nodes))].Star = true
	return pattern.New(root)
}
