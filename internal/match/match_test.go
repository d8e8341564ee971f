package match_test

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"tpq/internal/data"
	"tpq/internal/match"
	"tpq/internal/match/stream"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
)

// library is the running document of the data package tests.
func library() *data.Forest {
	lib := data.NewNode("Library")
	b1 := lib.Child("Book")
	b1.Child("Title")
	b1.Child("Author").Child("LastName")
	b2 := lib.Child("Book")
	b2.Child("Title")
	return data.NewForest(lib)
}

// answers is the answer set of p over f on the twig engine.
func answers(p *pattern.Pattern, f *data.Forest) []*data.Node {
	q, err := stream.Compile(p, match.NewForestIndex(f), stream.Options{})
	if err != nil {
		return nil
	}
	var out []*data.Node
	for v := range q.Answers(context.Background()) {
		out = append(out, v)
	}
	return out
}

func count(p *pattern.Pattern, f *data.Forest) int { return len(answers(p, f)) }

func typesOf(nodes []*data.Node) []pattern.Type {
	out := make([]pattern.Type, len(nodes))
	for i, n := range nodes {
		out[i] = n.Types[0]
	}
	return out
}

func TestAnswersBasic(t *testing.T) {
	f := library()
	cases := []struct {
		src  string
		want int
	}{
		{"Book*", 2},
		{"Book*/Title", 2},
		{"Book*[/Title, /Author]", 1},
		{"Book*//LastName", 1},
		{"Library//LastName*", 1},
		{"Library/Book/Title*", 2},
		{"Library//Title*", 2},
		{"Book*/LastName", 0}, // LastName is a grandchild, not a child
		{"Magazine*", 0},
		{"Library*//Author/LastName", 1},
		{"Title*", 2},
	}
	for _, c := range cases {
		t.Run(c.src, func(t *testing.T) {
			p := pattern.MustParse(c.src)
			got := answers(p, f)
			if len(got) != c.want {
				t.Errorf("answers(%q) = %v (%d), want %d", c.src, typesOf(got), len(got), c.want)
			}
			naive := answersNaive(p, f)
			if len(naive) != len(got) {
				t.Fatalf("naive oracle disagrees: %d vs %d", len(naive), len(got))
			}
			for i := range got {
				if got[i] != naive[i] {
					t.Fatalf("answer sets differ at %d", i)
				}
			}
		})
	}
}

func TestAnswersNonAnchored(t *testing.T) {
	// The pattern root binds anywhere, not only at document roots.
	f := library()
	p := pattern.MustParse("Author*/LastName")
	if got := count(p, f); got != 1 {
		t.Errorf("non-anchored match count = %d, want 1", got)
	}
}

func TestAnswersDocumentOrder(t *testing.T) {
	f := library()
	got := answers(pattern.MustParse("Title*"), f)
	if len(got) != 2 || got[0].ID >= got[1].ID {
		t.Errorf("answers not in document order: %v", got)
	}
}

func TestAnswersMultiTypeData(t *testing.T) {
	org := data.NewNode("Org")
	org.Child("Employee", "Person")
	org.Child("Contractor")
	f := data.NewForest(org)
	if got := count(pattern.MustParse("Org/Person*"), f); got != 1 {
		t.Errorf("multi-type match = %d, want 1", got)
	}
	// A pattern node with extra types requires all of them.
	if got := count(pattern.MustParse("Org/Employee{Person}*"), f); got != 1 {
		t.Errorf("extra-type pattern match = %d, want 1", got)
	}
	if got := count(pattern.MustParse("Org/Contractor{Person}*"), f); got != 0 {
		t.Errorf("unsatisfiable extra-type pattern matched %d", got)
	}
}

func TestBindingsIntersectTopDown(t *testing.T) {
	// The star node must only bind under data nodes where the *whole*
	// pattern embeds, not wherever its own subtree matches.
	root := data.NewNode("a")
	b1 := root.Child("b")
	b1.Child("c")
	root.Child("b") // b2 has no c child
	f := data.NewForest(root)
	p := pattern.MustParse("a/b*/c")
	if got := count(p, f); got != 1 {
		t.Errorf("Count = %d, want 1 (only the b with a c child)", got)
	}
	// and conversely constraints from above:
	p2 := pattern.MustParse("x/b/c*")
	if got := count(p2, f); got != 0 {
		t.Errorf("Count = %d, want 0 (no x above)", got)
	}
}

func TestAnswersEmptyInputs(t *testing.T) {
	if got := answers(&pattern.Pattern{}, library()); got != nil {
		t.Error("empty pattern matched")
	}
	if got := answers(pattern.MustParse("a*"), data.NewForest()); len(got) != 0 {
		t.Error("empty forest matched")
	}
}

func TestDescendantSelfNotMatched(t *testing.T) {
	// a//a requires a *proper* descendant.
	root := data.NewNode("a")
	f := data.NewForest(root)
	if got := count(pattern.MustParse("a*//a"), f); got != 0 {
		t.Errorf("single node matched a*//a: %d", got)
	}
	root.Child("a")
	f.Reindex()
	if got := count(pattern.MustParse("a*//a"), f); got != 1 {
		t.Errorf("a over a: %d answers, want 1", got)
	}
}

// randomForest builds a random forest over a small type alphabet.
func randomForest(rng *rand.Rand, size int) *data.Forest {
	types := []pattern.Type{"a", "b", "c", "d"}
	var roots []*data.Node
	var all []*data.Node
	for len(all) < size {
		if len(all) == 0 || rng.Intn(6) == 0 {
			r := data.NewNode(types[rng.Intn(len(types))])
			roots = append(roots, r)
			all = append(all, r)
			continue
		}
		parent := all[rng.Intn(len(all))]
		c := parent.Child(types[rng.Intn(len(types))])
		if rng.Intn(5) == 0 {
			c.AddType(types[rng.Intn(len(types))])
		}
		all = append(all, c)
	}
	return data.NewForest(roots...)
}

// randomQuery builds a random pattern over the same alphabet.
func randomQuery(rng *rand.Rand, size int) *pattern.Pattern {
	types := []pattern.Type{"a", "b", "c", "d"}
	root := pattern.NewNode(types[rng.Intn(len(types))])
	nodes := []*pattern.Node{root}
	for len(nodes) < size {
		parent := nodes[rng.Intn(len(nodes))]
		kind := pattern.Child
		if rng.Intn(2) == 0 {
			kind = pattern.Descendant
		}
		c := parent.AddChild(kind, pattern.NewNode(types[rng.Intn(len(types))]))
		nodes = append(nodes, c)
	}
	nodes[rng.Intn(len(nodes))].Star = true
	return pattern.New(root)
}

func TestAnswersAgainstNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 150; i++ {
		f := randomForest(rng, 1+rng.Intn(14))
		p := randomQuery(rng, 1+rng.Intn(5))
		slow := answersNaive(p, f)
		for name, fast := range map[string][]*data.Node{
			"stream":             answers(p, f),
			"oracle.BindingsMap": oracle.BindingsMap(p, f)[p.OutputNode()],
		} {
			if len(fast) != len(slow) {
				t.Fatalf("iter %d: %s found %d answers, naive %d\npattern %s\ndata:\n%s",
					i, name, len(fast), len(slow), p, f)
			}
			for j := range fast {
				if fast[j] != slow[j] {
					t.Fatalf("iter %d: %s answer %d differs", i, name, j)
				}
			}
		}
	}
}

// answersNaive enumerates embeddings by backtracking and returns the
// answer set in document order: exponential in the worst case, the
// brute-force check for the polynomial kernels on small inputs.
func answersNaive(p *pattern.Pattern, f *data.Forest) []*data.Node {
	star := p.OutputNode()
	if star == nil || f == nil {
		return nil
	}
	found := make(map[*data.Node]bool)
	// embed reports whether subtree(u) embeds with u ↦ v.
	var embed func(u *pattern.Node, v *data.Node) bool
	embed = func(u *pattern.Node, v *data.Node) bool {
		if !oracle.Admits(u, v) {
			return false
		}
		for _, c := range u.Children {
			okChild := false
			if c.Edge == pattern.Child {
				for _, w := range v.Children {
					if embed(c, w) {
						okChild = true
					}
				}
			} else {
				var desc func(*data.Node)
				desc = func(w *data.Node) {
					for _, x := range w.Children {
						if embed(c, x) {
							okChild = true
						}
						desc(x)
					}
				}
				desc(v)
			}
			if !okChild {
				return false
			}
		}
		return true
	}
	// collect walks every embedding of subtree(u) with u ↦ v, recording
	// the output node's images; started at every data node for the root.
	var collect func(u *pattern.Node, v *data.Node)
	collect = func(u *pattern.Node, v *data.Node) {
		if !embed(u, v) {
			return
		}
		if u.Star {
			found[v] = true
		}
		for _, c := range u.Children {
			if c.Edge == pattern.Child {
				for _, w := range v.Children {
					collect(c, w)
				}
			} else {
				var desc func(*data.Node)
				desc = func(w *data.Node) {
					for _, x := range w.Children {
						collect(c, x)
						desc(x)
					}
				}
				desc(v)
			}
		}
	}
	for _, v := range f.Nodes() {
		collect(p.Root, v)
	}
	out := make([]*data.Node, 0, len(found))
	for v := range found {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
