package match

import (
	"fmt"
	"math/rand"
	"testing"

	"tpq/internal/data"
	"tpq/internal/pattern"
)

func TestIndexedBasic(t *testing.T) {
	f := library()
	idx := NewForestIndex(f)
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
		if got := CountIndexed(p, idx); got != c.want {
			t.Errorf("CountIndexed(%q) = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestIndexedCandidates(t *testing.T) {
	org := data.NewNode("Org")
	org.Child("Employee", "Person").SetAttr("age", 30)
	org.Child("Employee")
	f := data.NewForest(org)
	idx := NewForestIndex(f)

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
	idx := NewForestIndex(data.NewForest())
	if got := AnswersIndexed(pattern.MustParse("a*"), idx); got != nil {
		t.Error("empty forest matched")
	}
	if got := AnswersIndexed(&pattern.Pattern{}, NewForestIndex(library())); got != nil {
		t.Error("empty pattern matched")
	}
}

func TestIndexedNestedAncestors(t *testing.T) {
	// Nested same-type ancestors exercise the back-scan in
	// filterIsDescendantOf: a(a(a(b))) with pattern a//b*.
	root := data.NewNode("a")
	mid := root.Child("a")
	inner := mid.Child("a")
	inner.Child("b")
	root.Child("x").Child("b") // b under x: also below the root a
	f := data.NewForest(root)
	idx := NewForestIndex(f)
	if got := CountIndexed(pattern.MustParse("a//b*"), idx); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	// Deep chain: only the innermost a has a direct b child.
	if got := CountIndexed(pattern.MustParse("a/b*"), idx); got != 1 {
		t.Errorf("Count = %d, want 1", got)
	}
}

// TestDescendantFilterProperty checks the merge-cursor interval filters
// against a naive ancestor-walk oracle on random document-ordered lists.
func TestDescendantFilterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pick := func(nodes []*data.Node) []*data.Node {
		var out []*data.Node
		for _, v := range nodes {
			if rng.Intn(3) == 0 {
				out = append(out, v)
			}
		}
		return out
	}
	sameNodes := func(a, b []*data.Node) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for trial := 0; trial < 300; trial++ {
		f := randomForest(rng, 1+rng.Intn(80))
		nodes := f.Nodes()
		list, others := pick(nodes), pick(nodes)

		var wantDesc []*data.Node
		for _, v := range list {
			for _, w := range others {
				if v.IsAncestorOf(w) {
					wantDesc = append(wantDesc, v)
					break
				}
			}
		}
		if got := filterHasDescendantIn(list, others); !sameNodes(got, wantDesc) {
			t.Fatalf("trial %d: filterHasDescendantIn mismatch:\ngot  %v\nwant %v", trial, got, wantDesc)
		}

		var wantUnder []*data.Node
		for _, v := range list {
			for _, a := range others {
				if a.IsAncestorOf(v) {
					wantUnder = append(wantUnder, v)
					break
				}
			}
		}
		if got := filterIsDescendantOf(list, others); !sameNodes(got, wantUnder) {
			t.Fatalf("trial %d: filterIsDescendantOf mismatch:\ngot  %v\nwant %v", trial, got, wantUnder)
		}
	}
}

// TestTypeBitsAbsentTypes pins that rows are cached only for types the
// forest carries: a shared index serves every query's type names, so a
// cached row per absent name would grow the heap for good.
func TestTypeBitsAbsentTypes(t *testing.T) {
	idx := NewForestIndex(library())
	book := idx.TypeBits("Book")
	if book.Count() != 2 {
		t.Fatalf("TypeBits(Book) has %d members, want 2", book.Count())
	}
	for i := 0; i < 1000; i++ {
		if s := idx.TypeBits(pattern.Type(fmt.Sprintf("Zz%d", i))); s.Any() || len(s) != len(book) {
			t.Fatalf("absent type %d: row of %d words with members %v", i, len(s), s.Any())
		}
	}
	if len(idx.bits) != 1 {
		t.Fatalf("cache holds %d rows after 1,000 absent types, want 1", len(idx.bits))
	}
}
