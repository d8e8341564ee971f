package match_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tpq/internal/data"
	"tpq/internal/match"
	"tpq/internal/match/stream"
	"tpq/internal/pattern"
)

// countIndexed counts p's answers over idx on the twig engine, -1 when p
// does not compile.
func countIndexed(p *pattern.Pattern, idx *match.ForestIndex) int {
	q, err := stream.Compile(p, idx, stream.Options{})
	if err != nil {
		return -1
	}
	return q.Count(context.Background())
}

func TestIndexedBasic(t *testing.T) {
	f := library()
	idx := match.NewForestIndex(f)
	cases := []struct {
		src  string
		want int
	}{
		{"Book*", 2},
		{"Book*[/Title, /Author]", 1},
		{"Book*//LastName", 1},
		{"Library//Title*", 2},
		{"Book*/LastName", 0},
		{"Missing*", 0},
	}
	for _, c := range cases {
		p := pattern.MustParse(c.src)
		if got := countIndexed(p, idx); got != c.want {
			t.Errorf("countIndexed(%q) = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestIndexedCandidates(t *testing.T) {
	org := data.NewNode("Org")
	org.Child("Employee", "Person").SetAttr("age", 30)
	org.Child("Employee")
	f := data.NewForest(org)
	idx := match.NewForestIndex(f)

	if got := idx.Candidates(pattern.NewNode("Employee")); len(got) != 2 {
		t.Errorf("Candidates(Employee) = %d", len(got))
	}
	multi := pattern.NewNode("Employee")
	multi.AddType("Person", false)
	if got := idx.Candidates(multi); len(got) != 1 {
		t.Errorf("Candidates(Employee{Person}) = %d", len(got))
	}
	cond := pattern.NewNode("Employee")
	cond.AddCond(pattern.Condition{Attr: "age", Op: pattern.OpGt, Value: 25})
	if got := idx.Candidates(cond); len(got) != 1 {
		t.Errorf("Candidates with condition = %d", len(got))
	}
}

func TestIndexedEmpty(t *testing.T) {
	idx := match.NewForestIndex(data.NewForest())
	if got := countIndexed(pattern.MustParse("a*"), idx); got != 0 {
		t.Errorf("empty forest matched %d", got)
	}
	if got := countIndexed(&pattern.Pattern{}, match.NewForestIndex(library())); got != -1 {
		t.Errorf("empty pattern counted %d", got)
	}
}

func TestIndexedNestedAncestors(t *testing.T) {
	// Nested same-type ancestors: a(a(a(b))) with pattern a//b*, whose
	// descendant step must not count the nested intervals twice.
	root := data.NewNode("a")
	mid := root.Child("a")
	inner := mid.Child("a")
	inner.Child("b")
	root.Child("x").Child("b") // b under x: also below the root a
	f := data.NewForest(root)
	idx := match.NewForestIndex(f)
	if got := countIndexed(pattern.MustParse("a//b*"), idx); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	// Deep chain: only the innermost a has a direct b child.
	if got := countIndexed(pattern.MustParse("a/b*"), idx); got != 1 {
		t.Errorf("Count = %d, want 1", got)
	}
}

// TestDescendantFilterProperty checks the index's preorder arrays
// against the forest's pointers on random forests: Parents gives every
// node's parent, and the interval (v, Ends()[v]] holds exactly v's proper
// descendants — the descendant filter every engine pass relies on.
func TestDescendantFilterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		f := randomForest(rng, 1+rng.Intn(200))
		idx := match.NewForestIndex(f)
		parent, end := idx.Parents(), idx.Ends()
		nodes := f.Nodes()
		for _, v := range nodes {
			want := int32(-1)
			if v.Parent != nil {
				want = int32(v.Parent.ID)
			}
			if parent[v.ID] != want {
				t.Fatalf("trial %d: node %d: parent %d, want %d", trial, v.ID, parent[v.ID], want)
			}
			for _, w := range nodes {
				if in := w.ID > v.ID && w.ID <= int(end[v.ID]); in != v.IsAncestorOf(w) {
					t.Fatalf("trial %d: node %d: end %d places %d inside = %v, ancestry says %v",
						trial, v.ID, end[v.ID], w.ID, in, v.IsAncestorOf(w))
				}
			}
		}
	}
}

// TestTypeBitsAbsentTypes pins that rows are cached only for types the
// forest carries: a shared index serves every query's type names, so a
// cached row per absent name would grow the heap for good.
func TestTypeBitsAbsentTypes(t *testing.T) {
	idx := match.NewForestIndex(library())
	book := idx.TypeBits("Book")
	if book.Count() != 2 {
		t.Fatalf("TypeBits(Book) has %d members, want 2", book.Count())
	}
	for i := 0; i < 1000; i++ {
		if s := idx.TypeBits(pattern.Type(fmt.Sprintf("Zz%d", i))); s.Any() || len(s) != len(book) {
			t.Fatalf("absent type %d: row of %d words with members %v", i, len(s), s.Any())
		}
	}
	if n := match.CachedTypeRows(idx); n != 1 {
		t.Fatalf("cache holds %d rows after 1,000 absent types, want 1", n)
	}
}
